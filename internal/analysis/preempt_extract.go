package analysis

import (
	"fmt"
	"go/ast"
	"hash/fnv"
	"path/filepath"
	"sort"
	"strings"
)

// Preemption-point extraction (the third analyzer of the concurrency
// suite, though it emits a table rather than findings): ROADMAP item
// 1's deterministic multi-CPU scheduler needs a closed list of the
// program points where interleaving matters. Those are exactly the
// events the other analyzers already model — lock acquire/release
// sites (where the ghost oracle records abstractions and where the
// rank discipline serializes), TLBI emissions (the edges of every
// break-before-make window), and page-table visitor steps (the
// per-entry granularity at which a walk can observe a racing
// mutation). ExtractPreemptPoints walks the loaded universe and
// returns that list with stable content-addressed IDs; cmd/ghostlint
// -write-preempt renders it into internal/analysis/preempt (a Go
// table plus JSON), and -check-preempt gates drift in CI.

// Preemption-point kinds. These mirror (and must stay in sync with)
// the preempt.Kind* constants of the generated package.
const (
	KindLockAcquire = "lock-acquire"
	KindLockRelease = "lock-release"
	KindTLBI        = "tlbi"
	KindVisitorStep = "visitor-step"
)

// PreemptPoint is one statically-extracted scheduling point.
type PreemptPoint struct {
	// ID is the FNV-1a hash of "kind|file|line|col": stable across
	// extractions of identical source, changed whenever the site moves.
	ID uint64
	// Kind is one of the Kind* constants.
	Kind string
	// Component is the ranked lock component for lock points ("" for
	// unranked locks and non-lock kinds).
	Component string
	// Func is the enclosing function's name ("" at file scope, which
	// does not occur for these kinds).
	Func string
	// File is the module-root-relative, slash-separated path.
	File string
	Line int
	Col  int
}

// PointID computes the stable ID for a site. Content addressing by
// (kind, position) means the table needs no allocation counter and
// two independent extractions of the same tree agree ID-for-ID.
func PointID(kind, file string, line, col int) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%d|%d", kind, file, line, col)
	return h.Sum64()
}

// ExtractPreemptPoints walks every loaded package and collects the
// preemption-point table, sorted by (file, line, col, kind).
//
// Exclusions: testdata trees (not part of the program), the generated
// preempt package itself, internal/arch for the TLBI kind only
// (matching bbmcheck: it implements the TLB rather than invoking it),
// and deferred calls. A deferred call runs from the function's
// return, so no frame is ever at its `defer` line and the point could
// never be crossed: `defer hv.unlockVMs(cpu)` is crossed at the
// helper's own release line, a bare `defer l.Unlock()` not at all.
// The arguments of a deferred call are evaluated at the defer line
// and still count.
func ExtractPreemptPoints(u *Universe, modRoot string) []PreemptPoint {
	var pts []PreemptPoint
	for _, pkg := range u.Pkgs {
		if strings.Contains(filepath.ToSlash(pkg.Dir), "/testdata/") ||
			strings.HasSuffix(pkg.Path, "internal/analysis/preempt") {
			continue
		}
		isArch := strings.HasSuffix(pkg.Path, "internal/arch")
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				deferred := map[*ast.CallExpr]bool{}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					if d, ok := n.(*ast.DeferStmt); ok {
						deferred[d.Call] = true
					}
					call, ok := n.(*ast.CallExpr)
					if !ok || deferred[call] {
						return true
					}
					if kind, comp, ok := classifyPoint(pkg, call, isArch); ok {
						pts = append(pts, u.pointAt(modRoot, kind, comp, fd.Name.Name, call))
					}
					return true
				})
			}
		}
	}
	sort.Slice(pts, func(i, j int) bool {
		a, b := pts[i], pts[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Kind < b.Kind
	})
	return pts
}

// classifyPoint decides whether a call site is a preemption point.
func classifyPoint(pkg *Package, call *ast.CallExpr, isArch bool) (kind, comp string, ok bool) {
	switch op, c, ranked := classifyLockCall(pkg, call); op {
	case opAcquire:
		if !ranked {
			c = ""
		}
		return KindLockAcquire, c, true
	case opRelease:
		if !ranked {
			c = ""
		}
		return KindLockRelease, c, true
	}
	if !isArch && isTLBIEmission(pkg, call) {
		return KindTLBI, "", true
	}
	if isVisitorStep(pkg, call) {
		return KindVisitorStep, "", true
	}
	return "", "", false
}

// isVisitorStep matches v.Fn(ctx) where v is a pgtable.Visitor — the
// per-entry callback invocation of the generic walk.
func isVisitorStep(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Fn" {
		return false
	}
	t := exprType(pkg, sel.X)
	return t != nil && isNamed(t, "internal/pgtable", "Visitor")
}

func (u *Universe) pointAt(modRoot, kind, comp, fname string, n ast.Node) PreemptPoint {
	pos := u.Fset.Position(n.Pos())
	file := pos.Filename
	if rel, err := filepath.Rel(modRoot, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = filepath.ToSlash(rel)
	}
	return PreemptPoint{
		ID:        PointID(kind, file, pos.Line, pos.Column),
		Kind:      kind,
		Component: comp,
		Func:      fname,
		File:      file,
		Line:      pos.Line,
		Col:       pos.Column,
	}
}

// kindConst maps a kind string to the preempt package's constant name
// for rendering.
var kindConst = map[string]string{
	KindLockAcquire: "KindLockAcquire",
	KindLockRelease: "KindLockRelease",
	KindTLBI:        "KindTLBI",
	KindVisitorStep: "KindVisitorStep",
}

// RenderPreemptGo renders the generated half of the preempt package.
// Output is deterministic byte-for-byte for a given table — the drift
// gate (ghostlint -check-preempt, TestPreemptTableInSync) depends on
// that.
func RenderPreemptGo(pts []PreemptPoint) []byte {
	var b strings.Builder
	b.WriteString("// Code generated by ghostlint -write-preempt; DO NOT EDIT.\n")
	b.WriteString("\n")
	b.WriteString("package preempt\n")
	b.WriteString("\n")
	b.WriteString("// generatedPoints is the statically-extracted preemption-point\n")
	b.WriteString("// table: every lock acquire/release, TLBI emission, and pgtable\n")
	b.WriteString("// visitor step in the module that is not a deferred call.\n")
	b.WriteString("// Regenerate with\n")
	b.WriteString("//\n")
	b.WriteString("//\tgo run ./cmd/ghostlint -write-preempt\n")
	b.WriteString("var generatedPoints = []Point{\n")
	for _, p := range pts {
		fmt.Fprintf(&b, "\t{ID: %#016x, Kind: %s, Component: %q, Func: %q, File: %q, Line: %d, Col: %d},\n",
			p.ID, kindConst[p.Kind], p.Component, p.Func, p.File, p.Line, p.Col)
	}
	b.WriteString("}\n")
	return []byte(b.String())
}

// RenderPreemptJSON renders the same table as JSON for non-Go
// consumers (the CI annotation step, future schedule-fuzzing tools).
// Hand-rendered to keep field order and formatting deterministic; IDs
// are hex strings because JSON numbers cannot carry 64 bits exactly.
func RenderPreemptJSON(pts []PreemptPoint) []byte {
	var b strings.Builder
	b.WriteString("[\n")
	for i, p := range pts {
		comma := ","
		if i == len(pts)-1 {
			comma = ""
		}
		fmt.Fprintf(&b,
			"  {\"id\": \"%#016x\", \"kind\": %q, \"component\": %q, \"func\": %q, \"file\": %q, \"line\": %d, \"col\": %d}%s\n",
			p.ID, p.Kind, p.Component, p.Func, p.File, p.Line, p.Col, comma)
	}
	b.WriteString("]\n")
	return []byte(b.String())
}
