package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Span pairing is the trace-package half of telemetrycheck: every
// trace.Tracer.Begin must reach a matching SpanHandle.End on every
// path out of the function, or the lane's open-span stack drifts and
// every later span on the lane nests under a ghost parent. The
// canonical shape is
//
//	sp := tr.Begin(lane, name)
//	defer sp.End()
//
// and that is the discipline checked: a Begin whose handle is
// discarded, or whose End is missing on some return path, or that
// paths disagree about, is a finding. Resolution is type-driven; an
// unresolvable Begin/End (stubbed import) is skipped rather than
// guessed, since both are common method names.

// spanBeginCall reports whether call is trace.(*Tracer).Begin, by type
// information only.
func spanBeginCall(pkg *Package, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Begin" {
		return false
	}
	callee := resolveCallee(pkg, call)
	return callee != nil && callee.Pkg() != nil &&
		strings.HasSuffix(callee.Pkg().Path(), "internal/telemetry/trace")
}

// spanEndCall returns the handle variable name if call is
// trace.SpanHandle.End on a plain identifier, else "".
func spanEndCall(pkg *Package, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" || len(call.Args) != 0 {
		return ""
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return ""
	}
	callee := resolveCallee(pkg, call)
	if callee == nil || callee.Pkg() == nil ||
		!strings.HasSuffix(callee.Pkg().Path(), "internal/telemetry/trace") {
		return ""
	}
	return id.Name
}

// spanFlow is spancheck's set of flow hooks over the held set, keyed
// by handle variable.
type spanFlow struct{ heldFlow }

func newSpanFlow(u *Universe, pkg *Package, out *[]Finding, fname string) *spanFlow {
	return &spanFlow{heldFlow{u: u, pkg: pkg, out: out, fname: fname, analyzer: "telemetrycheck", mismatch: spanMismatch}}
}

func spanMismatch(at ast.Stmt) string {
	switch at.(type) {
	case *ast.IfStmt:
		return "%s: branches disagree about open spans (then: %s; else: %s); end the span on both paths or defer"
	case *ast.ForStmt, *ast.RangeStmt:
		return "%s: loop body changes the open-span set (entry: %s; after one iteration: %s); each iteration must balance its Begin/End"
	case *ast.SelectStmt:
		return "%s: select cases disagree about open spans (%s vs %s); end the span in every case or defer"
	}
	return "%s: switch cases disagree about open spans (%s vs %s); end the span in every case or defer"
}

// enter: a literal's spans run on their own schedule and must balance
// locally.
func (a *spanFlow) enter(heldSet, bool) heldSet { return heldSet{} }

// exit reports spans still open (and not deferred) at a path exit.
func (a *spanFlow) exit(pos token.Pos, st heldSet, where string) {
	for _, h := range st.active() {
		a.report(pos,
			"%s: span handle %q begun but not ended at %s; the lane's open-span stack leaks — use `defer %s.End()`",
			a.fname, h, where, h)
	}
}

// call opens a span at `h := tr.Begin(...)` and closes it at `h.End()`.
// End of an untracked handle (parameter, field) is the caller's
// business; End on the no-op zero handle is legal by design.
func (a *spanFlow) call(call *ast.CallExpr, at ast.Stmt, st heldSet) {
	if h := spanEndCall(a.pkg, call); h != "" {
		delete(st, h)
		return
	}
	if !spanBeginCall(a.pkg, call) {
		return
	}
	switch at := at.(type) {
	case *ast.ExprStmt:
		a.report(call.Pos(),
			"%s: trace Begin handle discarded; the span never ends and the lane's open-span stack leaks",
			a.fname)
	case *ast.AssignStmt:
		id, ok := at.Lhs[0].(*ast.Ident)
		if len(at.Lhs) != 1 || !ok {
			return
		}
		if id.Name == "_" {
			a.report(call.Pos(), "%s: trace Begin handle assigned to _; the span never ends", a.fname)
			return
		}
		if mode, open := st[id.Name]; open && mode == heldActive {
			a.report(call.Pos(), "%s: handle %q overwritten while its span is still open", a.fname, id.Name)
		}
		st[id.Name] = heldActive
	}
}

// deferred honours `defer sp.End()` and End calls in a deferred
// literal.
func (a *spanFlow) deferred(d *ast.DeferStmt, st heldSet) {
	st.deferReleases(d.Call, func(c *ast.CallExpr) string { return spanEndCall(a.pkg, c) })
}
