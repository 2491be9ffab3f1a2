package analysis

import (
	"bufio"
	"fmt"
	"go/token"
	"maps"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"ghostspec/internal/analysis/preempt"
	// The packages that declare preemption points, so that the
	// registry holds them for TestRegistryMatchesSource.
	_ "ghostspec/internal/bugdemo"
	_ "ghostspec/internal/hyp"
	_ "ghostspec/internal/litmus"
	_ "ghostspec/internal/pgtable"
)

// loadWholeModule loads every package of the module and returns the
// universe plus module root. The load is shared by the tests of this
// package that type-check the whole module, which only read it.
func loadWholeModule(t *testing.T) (*Universe, string) {
	t.Helper()
	ld, err := wholeModule()
	if err != nil {
		t.Fatal(err)
	}
	return NewUniverse(ld), ld.ModRoot
}

var wholeModule = sync.OnceValues(func() (*Loader, error) {
	ld, err := NewLoader(".")
	if err != nil {
		return nil, err
	}
	dirs, err := ModuleDirs(ld.ModRoot)
	if err != nil {
		return nil, err
	}
	for _, d := range dirs {
		if _, err := ld.LoadDir(d); err != nil {
			return nil, fmt.Errorf("load %s: %w", d, err)
		}
	}
	return ld, nil
})

// extractPoints runs preemptcheck's scan over every loaded package
// outside testdata and returns the checked calls, keyed by the name
// preempt.At gives their point ("kind|component|pkg.func|ordinal"),
// with the checker's findings.
func extractPoints(u *Universe) (map[string]token.Position, []Finding) {
	calls := map[string]token.Position{}
	var findings []Finding
	for _, pkg := range u.Pkgs {
		if isTestdata(pkg) {
			continue
		}
		rows, fs := scanPoints(u, pkg)
		for _, r := range rows {
			p := preempt.Point{Kind: r.kind, Component: r.comp, Pkg: pkg.Path, Func: r.fn, Ordinal: r.ordinal}
			calls[p.Name()] = u.Fset.Position(r.call.Pos())
		}
		findings = append(findings, fs...)
	}
	return calls, findings
}

// TestPreemptStableIDs runs two extractions concurrently over the
// same universe (under `go test -race` in CI this also proves the
// extraction path is read-only) and requires them to agree call for
// call: the scheduler contract is that point names, and so IDs, are a
// pure function of the source.
func TestPreemptStableIDs(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	u, _ := loadWholeModule(t)

	var wg sync.WaitGroup
	results := make([]map[string]token.Position, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = extractPoints(u)
		}(i)
	}
	wg.Wait()

	if len(results[0]) == 0 {
		t.Fatal("extraction found no preemption points")
	}
	if !maps.Equal(results[0], results[1]) {
		t.Errorf("extractions differ:\n%v\n%v", results[0], results[1])
	}
}

// TestRegistryMatchesSource cross-checks the two halves of a point:
// the module passes preemptcheck, and the points registered at run
// time by the packages that declare them (linked into this test by the
// blank imports) are exactly the points of the calls the checker
// extracts from the source. A package path that At derived wrongly
// from the stack would register a name no call has.
func TestRegistryMatchesSource(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	u, _ := loadWholeModule(t)
	calls, findings := extractPoints(u)
	for _, f := range findings {
		t.Errorf("preemption-point finding: %s", f)
	}
	registered := map[string]bool{}
	for _, p := range preempt.Points() {
		registered[p.Name()] = true
		if _, ok := calls[p.Name()]; !ok {
			t.Errorf("registered point %s is passed at no call in the source", p.Name())
		}
	}
	for name, pos := range calls {
		if !registered[name] {
			t.Errorf("%s: point %s is not registered at run time (is its package imported by this test?)", pos, name)
		}
	}
	t.Logf("%d points registered, %d calls extracted", len(registered), len(calls))
}

// grepPatterns are the textual shapes of lock operations and TLBI
// emissions; TestPreemptGrepCoverage requires every match in the
// module's non-test sources to be a call the checker extracts. This is
// the acceptance check that the analyzer-driven extraction misses
// nothing a dumb grep can see.
var grepPatterns = []*regexp.Regexp{
	regexp.MustCompile(`\.(lockHost|lockHyp|lockVMs|lockGuest|unlockHost|unlockHyp|unlockVMs|unlockGuest)\(`),
	regexp.MustCompile(`\.(hostLock|hypLock|vmsLock|Lock)\.(Lock|LockAt|TryLock|Unlock|UnlockAt)\(`),
	regexp.MustCompile(`VMTableLock\(\)\.(Lock|LockAt|TryLock|Unlock|UnlockAt)\(`),
	regexp.MustCompile(`\.(tlbi|notifyTLBI)\(`),
	regexp.MustCompile(`\.(InvalidateRange|InvalidateIPA|InvalidateVMID|InvalidateStale|InvalidateAll)\(`),
}

// TestPreemptGrepCoverage cross-checks the extracted calls against a
// plain text search: every source line matching a lock/TLBI pattern
// (outside internal/arch, which implements rather than emits, and
// internal/analysis, whose matches are the analyzers' own name
// tables) must carry at least one checked call — unless the line is a
// `defer` statement, which passes none, or lies in a function (or
// function literal) taking a *preempt.Point, whose calls may forward
// it: the lock helpers, notifyTLBI and the TLBI bridges.
func TestPreemptGrepCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("reads the whole module")
	}
	u, root := loadWholeModule(t)
	calls, _ := extractPoints(u)
	covered := map[string]bool{}
	for _, pos := range calls {
		rel, err := filepath.Rel(root, pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		covered[fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)] = true
	}

	dirs, err := ModuleDirs(root)
	if err != nil {
		t.Fatal(err)
	}
	matched := 0
	for _, dir := range dirs {
		rel := filepath.ToSlash(strings.TrimPrefix(dir, root+string(os.PathSeparator)))
		if strings.HasPrefix(rel, "internal/arch") || strings.HasPrefix(rel, "internal/analysis") {
			continue
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := os.Open(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			sc := bufio.NewScanner(f)
			forwards := false // the innermost func header takes a point
			for ln := 1; sc.Scan(); ln++ {
				line := sc.Text()
				if strings.HasPrefix(line, "func ") || strings.Contains(line, "func(") {
					forwards = strings.Contains(line, "*preempt.Point")
				}
				// Crude comment strip: enough for this codebase, which
				// does not spell lock calls inside string literals.
				if i := strings.Index(line, "//"); i >= 0 {
					line = line[:i]
				}
				for _, re := range grepPatterns {
					if !re.MatchString(line) {
						continue
					}
					matched++
					key := fmt.Sprintf("%s/%s:%d", rel, name, ln)
					if strings.HasPrefix(strings.TrimSpace(line), "defer ") {
						if covered[key] {
							t.Errorf("%s defers %q but passes a preemption point", key, re)
						}
						break
					}
					if !covered[key] && !forwards {
						t.Errorf("%s matches %q but passes no preemption point", key, re)
					}
					break
				}
			}
			f.Close()
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if matched == 0 {
		t.Fatal("grep sweep matched nothing; patterns are broken")
	}
}
