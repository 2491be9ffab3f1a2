package analysis

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"ghostspec/internal/analysis/preempt"
)

// loadWholeModule loads every package of the module and returns the
// universe plus module root.
func loadWholeModule(t *testing.T) (*Universe, string) {
	t.Helper()
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ModuleDirs(ld.ModRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if _, err := ld.LoadDir(d); err != nil {
			t.Fatalf("load %s: %v", d, err)
		}
	}
	return NewUniverse(ld), ld.ModRoot
}

// TestPreemptStableIDs runs two extractions concurrently over the
// same universe (under `go test -race` in CI this also proves the
// extraction path is read-only) and requires them to agree point for
// point: the scheduler contract is that IDs are a pure function of
// the source.
func TestPreemptStableIDs(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	u, root := loadWholeModule(t)

	var wg sync.WaitGroup
	results := make([][]preempt.Point, 2)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _ = ExtractPreemptPoints(u, root)
		}(i)
	}
	wg.Wait()

	a, b := results[0], results[1]
	if len(a) == 0 {
		t.Fatal("extraction found no preemption points")
	}
	if len(a) != len(b) {
		t.Fatalf("extraction count differs: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("point %d differs between extractions: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Content addressing: recomputing any point's ID from its name
	// must reproduce it.
	for _, p := range a {
		if got := PointID(p.Kind, p.Component, p.File, p.Func, p.Ordinal); got != p.ID {
			t.Errorf("ID of %s %s:%d:%d not content-addressed: table %#x, recomputed %#x",
				p.Kind, p.File, p.Line, p.Col, p.ID, got)
		}
	}
}

// TestPreemptTableInSync is the in-process drift gate: the module
// passes the preemption-point checker, the checked-in generated table
// matches a fresh extraction byte for byte, and a tampered copy is
// detected.
func TestPreemptTableInSync(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	u, root := loadWholeModule(t)
	pts, findings := ExtractPreemptPoints(u, root)
	for _, f := range findings {
		t.Errorf("preemption-point finding: %s", f)
	}

	genGo := RenderPreemptGo(pts)
	got, err := os.ReadFile(filepath.Join(root, "internal", "analysis", "preempt", "points_gen.go"))
	if err != nil {
		t.Fatalf("points_gen.go: %v (run `go run ./cmd/ghostlint -write-preempt`)", err)
	}
	if !bytes.Equal(got, genGo) {
		t.Errorf("points_gen.go is stale: run `go run ./cmd/ghostlint -write-preempt` and commit")
	}
	// Sanity of the gate itself: a single flipped byte must not
	// compare equal.
	tampered := append([]byte(nil), genGo...)
	tampered[len(tampered)/2] ^= 1
	if bytes.Equal(tampered, genGo) {
		t.Error("tampered table compared equal")
	}
}

// grepPatterns are the textual shapes of lock operations and TLBI
// emissions; TestPreemptGrepCoverage requires every match in the
// module's non-test sources to appear in the checked-in table. This
// is the acceptance check that the analyzer-driven extraction misses
// nothing a dumb grep can see.
var grepPatterns = []*regexp.Regexp{
	regexp.MustCompile(`\.(lockHost|lockHyp|lockVMs|lockGuest|unlockHost|unlockHyp|unlockVMs|unlockGuest)\(`),
	regexp.MustCompile(`\.(hostLock|hypLock|vmsLock|Lock)\.(Lock|LockAt|TryLock|Unlock|UnlockAt)\(`),
	regexp.MustCompile(`VMTableLock\(\)\.(Lock|LockAt|TryLock|Unlock|UnlockAt)\(`),
	regexp.MustCompile(`\.(tlbi|notifyTLBI)\(`),
	regexp.MustCompile(`\.(InvalidateRange|InvalidateIPA|InvalidateVMID|InvalidateStale|InvalidateAll)\(`),
}

// TestPreemptGrepCoverage cross-checks the generated table against a
// plain text search: every source line matching a lock/TLBI pattern
// (outside internal/arch, which implements rather than emits, and
// internal/analysis, whose matches are the analyzers' own name
// tables) must carry at least one table point — unless the line is a
// `defer` statement, which passes none, or lies in a function (or
// function literal) taking a *preempt.Point, whose calls may forward
// it: the lock helpers, notifyTLBI and the TLBI bridges.
func TestPreemptGrepCoverage(t *testing.T) {
	if testing.Short() {
		t.Skip("reads the whole module")
	}
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	root := ld.ModRoot

	covered := map[string]bool{}
	for _, p := range preempt.Points() {
		covered[fmt.Sprintf("%s:%d", p.File, p.Line)] = true
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
							t.Errorf("%s defers %q but has a preemption point in the table", key, re)
						}
						break
					}
					if !covered[key] && !forwards {
						t.Errorf("%s matches %q but has no preemption point in the table", key, re)
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
