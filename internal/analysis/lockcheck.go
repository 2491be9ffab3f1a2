package analysis

import (
	"go/ast"
	"go/token"
)

// LockCheck verifies the lock discipline the ghost oracle depends on
// (paper §3.2), by abstract interpretation of each function body over
// a held-lock state:
//
//	L1  every acquired lock is released on every path out of the
//	    function (missing unlock / conditional leak);
//	L2  acquisitions follow the rank order vms < guest < host < hyp;
//	L3  calls to //ghost:requires-annotated functions happen with the
//	    required component lock held;
//	L4  a lock that is released explicitly (not via defer) is never
//	    held across a call that can reach hypPanic — panic unwinding
//	    would leak it.
type LockCheck struct{}

func (*LockCheck) Name() string { return "lockcheck" }

func (lc *LockCheck) Run(u *Universe, pkg *Package) []Finding {
	out := u.MetaFindings(pkg, "lockcheck")
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || isLockPrimitive(fd) {
				continue
			}
			a := newLockFlow(u, pkg, &out, fd.Name.Name)
			flow[heldSet]{pkg, a}.body(fd.Body, lockEntry(u, pkg, fd), "function end")
		}
	}
	return out
}

// lockFlow is lockcheck's set of flow hooks over the held-lock set,
// keyed by component.
type lockFlow struct{ heldFlow }

func newLockFlow(u *Universe, pkg *Package, out *[]Finding, fname string) *lockFlow {
	return &lockFlow{heldFlow{u: u, pkg: pkg, out: out, fname: fname, analyzer: "lockcheck", mismatch: lockMismatch}}
}

func lockMismatch(at ast.Stmt) string {
	switch at.(type) {
	case *ast.IfStmt:
		return "%s: branches leave different locks held (then: %s; else: %s); unlock on both paths or restructure"
	case *ast.ForStmt:
		return "%s: loop body changes the held-lock set (entry: %s; after one iteration: %s); each iteration must be lock-balanced"
	case *ast.RangeStmt:
		return "%s: range body changes the held-lock set (entry: %s; after one iteration: %s); each iteration must be lock-balanced"
	case *ast.SelectStmt:
		return "%s: select cases leave different locks held (%s vs %s); unlock in every case or restructure"
	}
	return "%s: switch cases leave different locks held (%s vs %s); unlock in every case or restructure"
}

// lockEntry is the held set at the top of fd's body: the locks its
// //ghost:requires annotation says the caller holds.
func lockEntry(u *Universe, pkg *Package, fd *ast.FuncDecl) heldSet {
	st := heldSet{}
	if obj := pkg.Info.Defs[fd.Name]; obj != nil {
		if req := u.RequiresOf(obj); req != nil {
			if req.Dynamic || req.Owner {
				// The body may run under any discipline lock; assume
				// all of them so nested requires and rank checks
				// don't fire spuriously. Call sites are checked
				// dynamically (lock=dynamic) or per-receiver
				// (lock=owner).
				for c := range LockRanks {
					st[c] = heldAssumed
				}
			}
			for _, c := range req.Comps {
				st[c] = heldAssumed
			}
		}
	}
	return st
}

// enter: a literal that runs inline (or escapes) may execute under the
// current locks, which it must not release or leak; a goroutine does
// not inherit the parent's critical section.
func (a *lockFlow) enter(st heldSet, spawned bool) heldSet {
	entry := heldSet{}
	if !spawned {
		for k := range st {
			entry[k] = heldAssumed
		}
	}
	return entry
}

// exit reports locks still held at a path exit (L1).
func (a *lockFlow) exit(pos token.Pos, st heldSet, where string) {
	for _, c := range st.active() {
		a.report(pos, "%s: lock %q still held at %s with no unlock on this path (prefer defer)",
			a.fname, c, where)
	}
}

// call applies a lock operation, or checks any other call (L3, L4).
// A lock operation inside an expression (`ok := l.TryLock()` is rare
// but legal) updates the state without the pairing checks.
func (a *lockFlow) call(call *ast.CallExpr, at ast.Stmt, st heldSet) {
	op, comp, ranked := classifyLockCall(a.pkg, call)
	_, held := st[comp]
	_, isStmt := at.(*ast.ExprStmt)
	switch {
	case op == opNone:
		a.checkCall(call, st)
	case !isStmt:
		if op == opAcquire && !held {
			st[comp] = heldActive
		} else if op == opRelease && held {
			delete(st, comp)
		}
	case op == opAcquire && held:
		a.report(call.Pos(), "%s: acquisition of %q while already holding it on this path",
			a.fname, comp)
	case op == opAcquire:
		if ranked {
			newRank := LockRanks[comp]
			for held := range st {
				if hr, ok := LockRanks[held]; ok && hr >= newRank {
					a.report(call.Pos(),
						"%s: lock rank inversion: acquiring %q (rank %d) while holding %q (rank %d); acquisition order is %s",
						a.fname, comp, newRank, held, hr, RankOrder)
				}
			}
		}
		st[comp] = heldActive
	case held:
		delete(st, comp)
	default:
		a.report(call.Pos(), "%s: unlock of %q, which is not held on this path", a.fname, comp)
	}
}

// checkCall enforces //ghost:requires at a call site (L3) and the
// panic-safety rule (L4).
func (a *lockFlow) checkCall(call *ast.CallExpr, st heldSet) {
	callee := resolveCallee(a.pkg, call)
	if callee == nil {
		return
	}
	if req := a.u.RequiresOf(callee); req != nil && !req.Dynamic {
		needed := req.Comps
		if req.Owner {
			needed = nil
			if c := ownerComponent(call); c != "" {
				needed = []string{c}
			}
		}
		for _, c := range needed {
			if _, held := st[c]; !held {
				a.report(call.Pos(),
					"%s: call to %s requires the %q lock (//ghost:requires), which is not held on this path",
					a.fname, callee.Name(), c)
			}
		}
	}
	if a.u.MayPanic(callee) {
		for _, c := range st.active() {
			a.report(call.Pos(),
				"%s: lock %q is held across call to %s, which can reach hypPanic; release it via defer so panic unwinding unlocks it",
				a.fname, c, callee.Name())
		}
	}
}

// deferred registers deferred releases: a direct lock helper call, or
// the release calls in a deferred literal's body.
func (a *lockFlow) deferred(d *ast.DeferStmt, st heldSet) {
	if op, comp, _ := classifyLockCall(a.pkg, d.Call); op == opRelease {
		if _, held := st[comp]; !held {
			a.report(d.Pos(), "%s: deferred unlock of %q, which is not held here", a.fname, comp)
		}
	}
	st.deferReleases(d.Call, func(c *ast.CallExpr) string {
		if op, comp, _ := classifyLockCall(a.pkg, c); op == opRelease {
			return comp
		}
		return ""
	})
}
