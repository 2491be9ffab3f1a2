package analysis

import (
	"go/ast"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// goldenDirs are the known-bad snippet packages under testdata/src;
// each line carrying a "want:<analyzer>" marker comment must produce
// exactly that analyzer's finding, and nothing else may fire.
var goldenDirs = []string{
	"lockcheck_bad",
	"guardcheck_bad",
	"bbmcheck_bad",
	"hookcheck_bad",
	"ptecheck_bad",
	"telemetrycheck_bad",
	"snapshotcheck_bad",
	"preempt_bad",
}

// mark identifies one expected or actual finding site.
type mark struct {
	file     string
	line     int
	analyzer string
}

// wantMarks extracts the "want:<analyzer>" markers of a package.
func wantMarks(ld *Loader, pkg *Package) map[mark]bool {
	out := map[mark]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "// want:")
				if !ok {
					continue
				}
				pos := ld.Fset.Position(c.Pos())
				out[mark{filepath.Base(pos.Filename), pos.Line, strings.TrimSpace(rest)}] = true
			}
		}
	}
	return out
}

func TestGoldenBadSnippets(t *testing.T) {
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, d := range goldenDirs {
		pkg, err := ld.LoadDir(filepath.Join("testdata", "src", d))
		if err != nil {
			t.Fatalf("load %s: %v", d, err)
		}
		pkgs = append(pkgs, pkg)
	}
	u := NewUniverse(ld)
	for _, pkg := range pkgs {
		want := wantMarks(ld, pkg)
		if len(want) == 0 {
			t.Errorf("%s: no want markers found", pkg.Path)
			continue
		}
		got := map[mark]bool{}
		for _, a := range Analyzers() {
			for _, f := range a.Run(u, pkg) {
				got[mark{filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer}] = true
				if !want[mark{filepath.Base(f.Pos.Filename), f.Pos.Line, f.Analyzer}] {
					t.Logf("finding: %s", f)
				}
			}
		}
		for m := range want {
			if !got[m] {
				t.Errorf("%s: expected %s finding at %s:%d, got none",
					pkg.Path, m.analyzer, m.file, m.line)
			}
		}
		for m := range got {
			if !want[m] {
				t.Errorf("%s: unexpected %s finding at %s:%d",
					pkg.Path, m.analyzer, m.file, m.line)
			}
		}
	}
}

// TestFindingText pins the full text of every finding (position,
// analyzer and message) on the golden snippet packages and on
// internal/bugdemo against testdata/findings.golden, so a change to
// any analyzer's wording, column or path rules shows up as a diff.
func TestFindingText(t *testing.T) {
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs := []string{filepath.Join(ld.ModRoot, "internal", "bugdemo")}
	for _, d := range goldenDirs {
		dirs = append(dirs, filepath.Join("testdata", "src", d))
	}
	var pkgs []*Package
	for _, d := range dirs {
		pkg, err := ld.LoadDir(d)
		if err != nil {
			t.Fatalf("load %s: %v", d, err)
		}
		pkgs = append(pkgs, pkg)
	}
	u := NewUniverse(ld)
	var got []string
	for _, pkg := range pkgs {
		for _, a := range Analyzers() {
			for _, f := range a.Run(u, pkg) {
				if rel, err := filepath.Rel(ld.ModRoot, f.Pos.Filename); err == nil {
					f.Pos.Filename = filepath.ToSlash(rel)
				}
				got = append(got, f.String())
			}
		}
	}
	sort.Strings(got)
	raw, err := os.ReadFile(filepath.Join("testdata", "findings.golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if strings.Join(got, "\n") == strings.Join(want, "\n") {
		return
	}
	inGot, inWant := map[string]bool{}, map[string]bool{}
	for _, l := range got {
		inGot[l] = true
	}
	for _, l := range want {
		inWant[l] = true
		if !inGot[l] {
			t.Errorf("- %s", l)
		}
	}
	for _, l := range got {
		if !inWant[l] {
			t.Errorf("+ %s", l)
		}
	}
	t.Errorf("findings differ from testdata/findings.golden (- golden, + now)")
}

// TestRepoClean is the in-process version of the CI ghostlint run:
// every package of the module must be free of unsuppressed findings.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := ModuleDirs(ld.ModRoot)
	if err != nil {
		t.Fatal(err)
	}
	var pkgs []*Package
	for _, d := range dirs {
		pkg, err := ld.LoadDir(d)
		if err != nil {
			t.Fatalf("load %s: %v", d, err)
		}
		pkgs = append(pkgs, pkg)
	}
	u := NewUniverse(ld)
	for _, pkg := range pkgs {
		var all []Finding
		for _, a := range Analyzers() {
			findings := a.Run(u, pkg)
			all = append(all, findings...)
			kept, _ := SplitSuppressed(pkg, findings)
			for _, f := range kept {
				t.Errorf("unsuppressed finding: %s", f)
			}
		}
		// Every //ghostlint:ignore in the tree must still cover a live
		// finding; a stale one would silently mask a future regression.
		for _, f := range StaleSuppressions(pkg, all) {
			t.Errorf("stale suppression: %s", f)
		}
	}
}

// TestBugdemoSuppression pins the seeded bugs in internal/bugdemo:
// each analyzer must see its demo, and the //ghostlint:ignore on the
// violating line must hide it in non-strict runs.
func TestBugdemoSuppression(t *testing.T) {
	ld, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := ld.LoadDir(filepath.Join(ld.ModRoot, "internal", "bugdemo"))
	if err != nil {
		t.Fatal(err)
	}
	u := NewUniverse(ld)
	seeds := []struct {
		analyzer Analyzer
		phrase   string
		file     string
	}{
		{&LockCheck{}, "rank inversion", "lockorder.go"},
		{&GuardCheck{}, "//ghost:guards lock=vms", "guardrace.go"},
		{&BBMCheck{}, "make after break with no TLBI", "bbmdemo.go"},
	}
	for _, seed := range seeds {
		all := seed.analyzer.Run(u, pkg)
		kept, suppressed := SplitSuppressed(pkg, all)
		if len(kept) != 0 {
			t.Errorf("bugdemo has unsuppressed %s findings: %v", seed.analyzer.Name(), kept)
		}
		found := false
		for _, f := range suppressed {
			if strings.Contains(f.Message, seed.phrase) &&
				strings.HasSuffix(f.Pos.Filename, seed.file) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s no longer flags the seeded bug in %s; suppressed findings: %v",
				seed.analyzer.Name(), seed.file, suppressed)
		}
	}
}

func TestParseRequires(t *testing.T) {
	doc := func(lines ...string) *ast.CommentGroup {
		cg := &ast.CommentGroup{}
		for _, l := range lines {
			cg.List = append(cg.List, &ast.Comment{Text: l})
		}
		return cg
	}

	req, err := parseRequires(doc("// doThing does a thing.", "//ghost:requires lock=hyp lock=host"))
	if err != nil || req == nil {
		t.Fatalf("parseRequires: req=%v err=%v", req, err)
	}
	if len(req.Comps) != 2 || req.Comps[0] != "host" || req.Comps[1] != "hyp" {
		t.Errorf("components not sorted by rank: %v", req.Comps)
	}

	req, err = parseRequires(doc("//ghost:requires lock=dynamic"))
	if err != nil || req == nil || !req.Dynamic || len(req.Comps) != 0 {
		t.Errorf("lock=dynamic: req=%+v err=%v", req, err)
	}

	req, err = parseRequires(doc("//ghost:requires lock=owner"))
	if err != nil || req == nil || !req.Owner {
		t.Errorf("lock=owner: req=%+v err=%v", req, err)
	}

	if _, err := parseRequires(doc("//ghost:requires lock=bogus")); err == nil {
		t.Error("unknown lock name not rejected")
	}
	if _, err := parseRequires(doc("//ghost:requires held=host")); err == nil {
		t.Error("unknown field not rejected")
	}

	req, err = parseRequires(doc("// an ordinary comment"))
	if req != nil || err != nil {
		t.Errorf("unannotated doc: req=%v err=%v", req, err)
	}
	req, err = parseRequires(nil)
	if req != nil || err != nil {
		t.Errorf("nil doc: req=%v err=%v", req, err)
	}
}

func TestParseGuards(t *testing.T) {
	doc := func(lines ...string) *ast.CommentGroup {
		cg := &ast.CommentGroup{}
		for _, l := range lines {
			cg.List = append(cg.List, &ast.Comment{Text: l})
		}
		return cg
	}

	g, err := parseGuards(doc("// pending counts work.", "//ghost:guards lock=vms"))
	if err != nil || g == nil || g.Comp != "vms" || g.Owner || g.Self {
		t.Errorf("component guard: g=%+v err=%v", g, err)
	}
	g, err = parseGuards(doc("//ghost:guards lock=owner"))
	if err != nil || g == nil || !g.Owner {
		t.Errorf("owner guard: g=%+v err=%v", g, err)
	}
	g, err = parseGuards(doc("//ghost:guards lock=self"))
	if err != nil || g == nil || !g.Self {
		t.Errorf("self guard: g=%+v err=%v", g, err)
	}
	if _, err := parseGuards(doc("//ghost:guards lock=bogus")); err == nil {
		t.Error("unknown lock name not rejected")
	}
	if _, err := parseGuards(doc("//ghost:guards lock=vms lock=host")); err == nil {
		t.Error("two clauses not rejected")
	}
	if _, err := parseGuards(doc("//ghost:guards held=vms")); err == nil {
		t.Error("unknown field not rejected")
	}
	g, err = parseGuards(doc("// an ordinary comment"))
	if g != nil || err != nil {
		t.Errorf("unannotated doc: g=%v err=%v", g, err)
	}
	g, err = parseGuards(nil)
	if g != nil || err != nil {
		t.Errorf("nil doc: g=%v err=%v", g, err)
	}
}

func TestParseIgnore(t *testing.T) {
	valid := AnalyzerNames()

	set, ok := parseIgnore("//ghostlint:ignore lockcheck deliberate for the demo", valid)
	if !ok || len(set) != 1 || !set["lockcheck"] {
		t.Errorf("single-analyzer ignore: set=%v ok=%v", set, ok)
	}

	set, ok = parseIgnore("//ghostlint:ignore lockcheck ptecheck reason text", valid)
	if !ok || len(set) != 2 || !set["lockcheck"] || !set["ptecheck"] {
		t.Errorf("multi-analyzer ignore: set=%v ok=%v", set, ok)
	}

	set, ok = parseIgnore("//ghostlint:ignore cold path, registry dedupes", valid)
	if !ok || set != nil {
		t.Errorf("all-analyzer ignore: set=%v ok=%v", set, ok)
	}

	if _, ok := parseIgnore("// an ordinary comment", valid); ok {
		t.Error("ordinary comment parsed as ignore directive")
	}
}
