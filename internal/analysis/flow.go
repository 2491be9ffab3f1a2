package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"maps"
	"sort"
	"strings"
)

// flowState is the per-path state of a path-sensitive analyzer. It is
// a reference type (a map) that the hooks update in place; the walker
// clones it wherever paths fork.
type flowState[S any] interface {
	clone() S
}

// flowHooks are one analyzer's transfer functions over its state.
type flowHooks[S flowState[S]] interface {
	// join merges two paths that meet after at: the arms of an if or
	// the clauses of a switch or select. For a loop it is handed the
	// entry state and the state after one iteration, and its result is
	// dropped: the walk goes on from the entry state.
	join(at ast.Stmt, a, b S) S
	// enter is the entry state of a function literal body met with
	// st; spawned marks the body of a go statement.
	enter(st S, spawned bool) S
	// visit sees each expression node, in source order, before its
	// operands are evaluated.
	visit(n ast.Node, st S)
	// call applies a call once its function and arguments are
	// evaluated. at is the expression statement or assignment whose
	// sole value the call is, and nil for a call inside an expression.
	call(c *ast.CallExpr, at ast.Stmt, st S)
	// deferred records what a defer statement's call will do at
	// return.
	deferred(d *ast.DeferStmt, st S)
	// exit checks the state where a path leaves the function body.
	exit(pos token.Pos, st S, where string)
}

// flow walks function bodies path by path for one analyzer. Each
// statement yields the state after it and whether the path goes on;
// a path that returns, panics or branches away is dropped from the
// joins after it.
type flow[S flowState[S]] struct {
	pkg *Package
	h   flowHooks[S]
}

// body walks a function body from entry and checks the state where it
// falls off the end.
func (f flow[S]) body(b *ast.BlockStmt, entry S, where string) {
	if st, live := f.stmts(b.List, entry); live {
		f.h.exit(b.End(), st, where)
	}
}

func (f flow[S]) stmts(list []ast.Stmt, st S) (S, bool) {
	live := true
	for _, s := range list {
		if st, live = f.stmt(s, st); !live {
			break
		}
	}
	return st, live
}

// opt walks an optional init or post statement.
func (f flow[S]) opt(s ast.Stmt, st S) (S, bool) {
	if s == nil {
		return st, true
	}
	return f.stmt(s, st)
}

func (f flow[S]) stmt(s ast.Stmt, st S) (S, bool) {
	live := true
	switch s := s.(type) {
	case *ast.BlockStmt:
		return f.stmts(s.List, st)
	case *ast.LabeledStmt:
		return f.stmt(s.Stmt, st)
	case *ast.BranchStmt:
		// break, continue, goto and fallthrough leave the straight-line
		// path; the loop rule below keeps that conservative.
		return st, false
	case *ast.ReturnStmt:
		f.exprs(st, s.Results...)
		f.h.exit(s.Pos(), st, "return")
		return st, false
	case *ast.ExprStmt:
		f.expr(s.X, s, st)
		if c, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && neverReturns(f.pkg, c) {
			return st, false
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			f.expr(s.Rhs[0], s, st)
		} else {
			f.exprs(st, s.Rhs...)
		}
		f.exprs(st, s.Lhs...)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					f.exprs(st, vs.Values...)
				}
			}
		}
	case *ast.IncDecStmt:
		f.expr(s.X, nil, st)
	case *ast.SendStmt:
		f.exprs(st, s.Chan, s.Value)
	case *ast.GoStmt:
		// The function value and arguments are evaluated here; a
		// literal's body runs on the new goroutine.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			f.body(lit.Body, f.h.enter(st, true), "end of function literal")
		} else {
			f.expr(s.Call.Fun, nil, st)
		}
		f.exprs(st, s.Call.Args...)
	case *ast.DeferStmt:
		f.expr(s.Call.Fun, nil, st)
		f.exprs(st, s.Call.Args...)
		f.h.deferred(s, st)
	case *ast.IfStmt:
		if st, live = f.opt(s.Init, st); !live {
			return st, false
		}
		f.expr(s.Cond, nil, st)
		var paths []S
		if then, live := f.stmts(s.Body.List, st.clone()); live {
			paths = append(paths, then)
		}
		if s.Else == nil {
			paths = append(paths, st)
		} else if els, live := f.stmt(s.Else, st.clone()); live {
			paths = append(paths, els)
		}
		return f.joinAll(s, st, paths)
	case *ast.ForStmt:
		if st, live = f.opt(s.Init, st); !live {
			return st, false
		}
		f.expr(s.Cond, nil, st)
		iter, live := f.stmts(s.Body.List, st.clone())
		if live {
			iter, live = f.opt(s.Post, iter)
		}
		if live {
			f.h.join(s, st, iter)
		}
	case *ast.RangeStmt:
		f.expr(s.X, nil, st)
		f.exprs(st, s.Key, s.Value)
		if iter, live := f.stmts(s.Body.List, st.clone()); live {
			f.h.join(s, st, iter)
		}
	case *ast.SwitchStmt:
		if st, live = f.opt(s.Init, st); !live {
			return st, false
		}
		f.expr(s.Tag, nil, st)
		return f.clauses(s, s.Body, st)
	case *ast.TypeSwitchStmt:
		if st, live = f.opt(s.Init, st); !live {
			return st, false
		}
		st, _ = f.stmt(s.Assign, st) // the guard, x := y.(type) or y.(type)
		return f.clauses(s, s.Body, st)
	case *ast.SelectStmt:
		return f.clauses(s, s.Body, st)
	}
	return st, true
}

// clauses walks the clauses of a switch, type switch or select as
// parallel paths from st and joins the ones that go on. A switch
// without a default may also take none of its cases; a select always
// takes exactly one.
func (f flow[S]) clauses(at ast.Stmt, body *ast.BlockStmt, st S) (S, bool) {
	var paths []S
	_, isSelect := at.(*ast.SelectStmt)
	fallsThrough := !isSelect
	for _, c := range body.List {
		var path S
		var stmts []ast.Stmt
		switch c := c.(type) {
		case *ast.CaseClause:
			fallsThrough = fallsThrough && c.List != nil
			f.exprs(st, c.List...)
			path, stmts = st.clone(), c.Body
		case *ast.CommClause:
			path, _ = f.opt(c.Comm, st.clone())
			stmts = c.Body
		}
		if path, live := f.stmts(stmts, path); live {
			paths = append(paths, path)
		}
	}
	if fallsThrough {
		paths = append(paths, st)
	}
	return f.joinAll(at, st, paths)
}

// joinAll folds the live paths after at into one state; with none
// live, no path goes on.
func (f flow[S]) joinAll(at ast.Stmt, st S, paths []S) (S, bool) {
	if len(paths) == 0 {
		return st, false
	}
	st = paths[0]
	for _, p := range paths[1:] {
		st = f.h.join(at, st, p)
	}
	return st, true
}

func (f flow[S]) exprs(st S, es ...ast.Expr) {
	w := &exprWalk[S]{f: f, st: st}
	for _, e := range es {
		if e != nil {
			ast.Walk(w, e)
		}
	}
}

// expr walks one expression; at is the statement it is the whole
// value of, handed to the call hook if the expression is a call.
func (f flow[S]) expr(e ast.Expr, at ast.Stmt, st S) {
	if e != nil {
		ast.Walk(&exprWalk[S]{f, st, at, ast.Unparen(e)}, e)
	}
}

// exprWalk applies an expression's calls in evaluation order: each
// call's function and arguments before the call itself. A function
// literal is walked as a body of its own from the hooks' entry state.
type exprWalk[S flowState[S]] struct {
	f   flow[S]
	st  S
	at  ast.Stmt // for the call top, if any
	top ast.Node
}

func (w *exprWalk[S]) Visit(n ast.Node) ast.Visitor {
	switch n := n.(type) {
	case nil:
		return nil
	case *ast.FuncLit:
		w.f.body(n.Body, w.f.h.enter(w.st, false), "end of function literal")
		return nil
	case *ast.CallExpr:
		w.f.h.visit(n, w.st)
		ast.Walk(w, n.Fun)
		for _, a := range n.Args {
			ast.Walk(w, a)
		}
		if n == w.top {
			w.f.h.call(n, w.at, w.st)
		} else {
			w.f.h.call(n, nil, w.st)
		}
		return nil
	}
	w.f.h.visit(n, w.st)
	return w
}

// neverReturns reports calls that do not return normally: the panic
// builtin and the hypervisor's hypPanic.
func neverReturns(pkg *Package, call *ast.CallExpr) bool {
	if isBuiltin(pkg, call, "panic") {
		return true
	}
	callee := resolveCallee(pkg, call)
	return callee != nil && callee.Name() == "hypPanic" && callee.Pkg() != nil &&
		strings.HasSuffix(callee.Pkg().Path(), "internal/hyp")
}

// heldMode is how a held resource will be released.
type heldMode int

const (
	// heldActive: taken on this path; it needs an explicit release on
	// every path out.
	heldActive heldMode = iota
	// heldDeferred: a defer releases it, so every path out is covered.
	heldDeferred
	// heldAssumed: held by the caller (//ghost:requires, or the
	// enclosing function of a literal); not this body's to release.
	heldAssumed
)

// heldSet is the state of lockcheck, guardcheck and spancheck: each
// held resource (a lock's component, an open span's handle variable)
// and how it will be released.
type heldSet map[string]heldMode

func (s heldSet) clone() heldSet { return maps.Clone(s) }

// meet keeps the entries both sets hold in the same mode.
func (s heldSet) meet(o heldSet) heldSet {
	out := heldSet{}
	for k, v := range s {
		if ov, ok := o[k]; ok && ov == v {
			out[k] = v
		}
	}
	return out
}

// active lists the entries in heldActive mode, sorted.
func (s heldSet) active() []string {
	var out []string
	for k, v := range s {
		if v == heldActive {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// describe renders the held set for a finding.
func (s heldSet) describe() string {
	if len(s) == 0 {
		return "(none)"
	}
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ", ")
}

// deferReleases marks as deferred each held entry that the deferred
// call c releases, itself or anywhere in a deferred literal's body;
// release names the entry a call releases, or "".
func (s heldSet) deferReleases(c *ast.CallExpr, release func(*ast.CallExpr) string) {
	var body ast.Node = c
	if lit, ok := ast.Unparen(c.Fun).(*ast.FuncLit); ok {
		body = lit.Body
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if k := release(call); k != "" {
				if _, held := s[k]; held {
					s[k] = heldDeferred
				}
			}
		}
		return true
	})
}

// heldFlow is the part of the held-set hooks the three analyzers
// share: paths that meet must hold the same set, and findings go to
// out under one analyzer's name.
type heldFlow struct {
	u        *Universe
	pkg      *Package
	out      *[]Finding
	fname    string
	analyzer string
	// mismatch is the finding, formatted with the function name and
	// the two sets, for paths that meet after at holding different
	// sets.
	mismatch func(at ast.Stmt) string
}

func (h *heldFlow) report(pos token.Pos, format string, args ...any) {
	*h.out = append(*h.out, Finding{
		Pos:      h.u.Fset.Position(pos),
		Analyzer: h.analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

func (h *heldFlow) join(at ast.Stmt, a, b heldSet) heldSet {
	if maps.Equal(a, b) {
		return a
	}
	h.report(at.Pos(), h.mismatch(at), h.fname, a.describe(), b.describe())
	return a.meet(b)
}

func (h *heldFlow) visit(ast.Node, heldSet) {}
