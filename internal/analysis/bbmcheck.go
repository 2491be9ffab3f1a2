package analysis

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"
	"strings"
)

// BBMCheck is the static twin of the ghost oracle's FailStaleTLB
// check: it enforces Armv8's break-before-make discipline over the
// page-table mutation code, path-sensitively within each function.
// The subject is every call to (*arch.Memory).WritePTE, the one
// operation that makes a descriptor architecturally visible. Entries
// are keyed by the (table, index) argument expressions, and each path
// tracks the last store per entry:
//
//	B1  after a zero store (break), the next valid store to the same
//	    entry requires an intervening TLBI emission — otherwise a
//	    stale translation for the old mapping survives in the TLB
//	    while the new one is live in the table;
//	B2  a valid store over an entry that already holds a valid store
//	    on this path is a valid→valid overwrite — forbidden outright,
//	    TLBI or not: the walk may cache either descriptor.
//
// A break with no make (entry left invalid at path end) is legal —
// that is an unmap, and the empty-table reclaim path relies on it. At
// a join an entry survives only if both sides agree, except that a
// pending (un-invalidated) break on either side survives — losing it
// would hide a missing TLBI behind any branch. Loop bodies are checked
// from the loop-entry state alone: cross-iteration sequences are out
// of scope (the runtime oracle covers them), which also keeps the
// per-iteration break→TLBI→make pattern of mutateRange clean.
//
// internal/arch is exempt: it implements the memory model and the TLB
// itself, and its WritePTE calls (snapshot restore, test scaffolding)
// sit below the architecture being modelled.
type BBMCheck struct{}

func (*BBMCheck) Name() string { return "bbmcheck" }

func (bc *BBMCheck) Run(u *Universe, pkg *Package) []Finding {
	if strings.HasSuffix(pkg.Path, "internal/arch") {
		return nil
	}
	var out []Finding
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			a := &bbmFlow{u: u, pkg: pkg, out: &out, fname: fd.Name.Name}
			flow[bbmState]{pkg, a}.body(fd.Body, bbmState{}, "function end")
		}
	}
	return out
}

// bbmWrite is the last store recorded for one entry on a path.
type bbmWrite struct {
	zero bool // the store was the invalid (zero) descriptor
	tlbi bool // a TLBI was emitted since the store
}

// bbmState maps entry key → last store. The key is the textual
// (table, index) argument pair; aliasing between different spellings
// of the same entry is invisible, as documented.
type bbmState map[string]bbmWrite

func (s bbmState) clone() bbmState { return maps.Clone(s) }

// merge joins two branch states: agreement survives, a pending break
// on either side survives (conservatively keeping B1 armed), anything
// else is dropped to unknown.
func mergeBBM(a, b bbmState) bbmState {
	out := make(bbmState)
	for k, av := range a {
		if bv, ok := b[k]; ok && av == bv {
			out[k] = av
			continue
		}
		if av.zero && !av.tlbi {
			out[k] = av
		}
	}
	for k, bv := range b {
		if _, done := out[k]; done {
			continue
		}
		if _, inA := a[k]; inA {
			continue // disagreement already resolved above
		}
		if bv.zero && !bv.tlbi {
			out[k] = bv
		}
	}
	return out
}

// bbmFlow is bbmcheck's set of flow hooks over bbmState.
type bbmFlow struct {
	u     *Universe
	pkg   *Package
	out   *[]Finding
	fname string
}

func (a *bbmFlow) report(n ast.Node, format string, args ...any) {
	*a.out = append(*a.out, Finding{
		Pos:      a.u.Fset.Position(n.Pos()),
		Analyzer: "bbmcheck",
		Message:  fmt.Sprintf(format, args...),
	})
}

func (a *bbmFlow) join(_ ast.Stmt, x, y bbmState) bbmState { return mergeBBM(x, y) }

// enter: a literal runs later (or elsewhere), so its body is checked
// in isolation.
func (a *bbmFlow) enter(bbmState, bool) bbmState { return bbmState{} }

func (a *bbmFlow) visit(ast.Node, bbmState)         {}
func (a *bbmFlow) exit(token.Pos, bbmState, string) {}

// deferred: a deferred TLBI runs at return, after any make on the
// path, so it does not satisfy the break→TLBI→make order.
func (a *bbmFlow) deferred(*ast.DeferStmt, bbmState) {}

// call applies a WritePTE store or a TLBI emission.
func (a *bbmFlow) call(call *ast.CallExpr, _ ast.Stmt, st bbmState) {
	if table, idx, val, ok := a.writePTECall(call); ok {
		a.applyWrite(call, table, idx, val, st)
		return
	}
	if isTLBIEmission(a.pkg, call) {
		for k, w := range st {
			if w.zero && !w.tlbi {
				w.tlbi = true
				st[k] = w
			}
		}
	}
}

// writePTECall matches (*arch.Memory).WritePTE(table, idx, val).
func (a *bbmFlow) writePTECall(call *ast.CallExpr) (table, idx, val ast.Expr, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || sel.Sel.Name != "WritePTE" || len(call.Args) != 3 {
		return nil, nil, nil, false
	}
	if t := exprType(a.pkg, sel.X); t != nil && !isNamed(t, "internal/arch", "Memory") {
		return nil, nil, nil, false
	}
	return call.Args[0], call.Args[1], call.Args[2], true
}

func (a *bbmFlow) applyWrite(call *ast.CallExpr, table, idx, val ast.Expr, st bbmState) {
	key := types.ExprString(table) + "|" + types.ExprString(idx)
	zero := isConstZero(a.pkg, val)
	prev, known := st[key]
	if !zero && known {
		switch {
		case prev.zero && !prev.tlbi:
			a.report(call,
				"%s: make after break with no TLBI: entry (%s)[%s] was stored invalid on this path and is re-made valid before any TLB invalidation — a stale translation survives (break-before-make, see FailStaleTLB)",
				a.fname, types.ExprString(table), types.ExprString(idx))
		case !prev.zero:
			a.report(call,
				"%s: valid→valid overwrite of entry (%s)[%s]: break it first (store zero, emit the TLBI) before installing the replacement descriptor",
				a.fname, types.ExprString(table), types.ExprString(idx))
		}
	}
	st[key] = bbmWrite{zero: zero}
}

// isConstZero reports whether the expression is the constant zero
// descriptor.
func isConstZero(pkg *Package, e ast.Expr) bool {
	tv, ok := pkg.Info.Types[e]
	if !ok || tv.Value == nil {
		return false
	}
	v, exact := constant.Uint64Val(tv.Value)
	return exact && v == 0
}

// isTLBIEmission matches the calls that emit (or model) a TLB
// invalidation: the pgtable notification path (notifyTLBI and the
// tlbi callback) and the software TLB's invalidation entry points.
func isTLBIEmission(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	name := sel.Sel.Name
	if strings.HasPrefix(name, "Set") {
		return false // callback registration, not emission
	}
	if strings.Contains(strings.ToLower(name), "tlbi") {
		// Exclude closure factories (guestTLBI returns the emitter).
		if t := exprType(pkg, call); t != nil {
			if _, isFunc := t.Underlying().(*types.Signature); isFunc {
				return false
			}
		}
		return true
	}
	switch name {
	case "InvalidateRange", "InvalidateIPA", "InvalidateVMID", "InvalidateStale", "InvalidateAll":
		t := exprType(pkg, sel.X)
		return t == nil || isNamed(t, "internal/arch", "TLB")
	}
	return false
}
