package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// This file is ghostlint's model of the hypervisor's locks: which
// expressions denote which lock-discipline component, and the global
// rank table. It is name-based with type confirmation — the lock
// fields and helper methods of internal/hyp are a closed, stable set,
// and naming them here keeps the analyzers free of whole-program
// alias analysis. An unrecognized *spinlock.Lock expression still
// gets pairing checks under a per-expression pseudo-component; only
// rank checking needs the name.

// LockRanks is the global acquisition order: a lock may only be
// acquired while every held ranked lock has a strictly lower rank.
// The order is the one every hypercall path already follows: the VM
// table before a guest stage 2, a guest stage 2 before the host
// stage 2, the host stage 2 before the hypervisor's own stage 1.
var LockRanks = map[string]int{
	"vms":   1,
	"guest": 2,
	"host":  3,
	"hyp":   4,
}

// RankOrder renders the rank table for messages.
const RankOrder = "vms < guest < host < hyp"

// lockFieldComponents maps spinlock-typed field names to components.
// "Lock" is the per-VM guest stage 2 lock (hyp.VM.Lock).
var lockFieldComponents = map[string]string{
	"hostLock": "host",
	"hypLock":  "hyp",
	"vmsLock":  "vms",
	"Lock":     "guest",
}

// lockMethodComponents maps lock-returning accessor methods to
// components (hv.VMTableLock().Lock()).
var lockMethodComponents = map[string]string{
	"VMTableLock": "vms",
}

// acquireHelpers / releaseHelpers are the Hypervisor methods that
// wrap lock operations together with the ghost instrumentation hooks.
var acquireHelpers = map[string]string{
	"lockHost":  "host",
	"lockHyp":   "hyp",
	"lockVMs":   "vms",
	"lockGuest": "guest",
}

var releaseHelpers = map[string]string{
	"unlockHost":  "host",
	"unlockHyp":   "hyp",
	"unlockVMs":   "vms",
	"unlockGuest": "guest",
}

// tableOwnerFields resolves lock=owner annotations on pgtable.Table
// methods: which component lock protects the table reached through a
// given field.
var tableOwnerFields = map[string]string{
	"hostPGT": "host",
	"hypPGT":  "hyp",
	"PGT":     "guest",
}

// exemptLockFuncs are the functions that implement the locking
// primitives themselves; lockcheck does not flow-analyze their
// bodies.
func isLockPrimitive(fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	_, acq := acquireHelpers[name]
	_, rel := releaseHelpers[name]
	return fd.Recv != nil && (acq || rel)
}

// lockOp classifies a call's effect on the held-lock state.
type lockOp int

const (
	opNone lockOp = iota
	opAcquire
	opRelease
)

// classifyLockCall decides whether call acquires or releases a
// spinlock and which component it belongs to. ranked reports whether
// the component is in the rank table; unrecognized locks get a
// pseudo-component keyed by the receiver expression so pairing is
// still enforced.
func classifyLockCall(pkg *Package, call *ast.CallExpr) (op lockOp, comp string, ranked bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone, "", false
	}
	name := sel.Sel.Name
	switch name {
	case "Lock", "LockAt", "TryLock", "Unlock", "UnlockAt":
		if !isSpinlockExpr(pkg, sel.X) {
			return opNone, "", false
		}
		comp, ranked = lockComponent(sel.X)
		if name == "Unlock" || name == "UnlockAt" {
			return opRelease, comp, ranked
		}
		return opAcquire, comp, ranked
	}
	if c, ok := acquireHelpers[name]; ok && isHypervisorExpr(pkg, sel.X) {
		return opAcquire, c, true
	}
	if c, ok := releaseHelpers[name]; ok && isHypervisorExpr(pkg, sel.X) {
		return opRelease, c, true
	}
	return opNone, "", false
}

// lockComponent maps the receiver of a Lock/Unlock call to a
// component key.
func lockComponent(recv ast.Expr) (string, bool) {
	switch e := ast.Unparen(recv).(type) {
	case *ast.SelectorExpr:
		if c, ok := lockFieldComponents[e.Sel.Name]; ok {
			return c, true
		}
	case *ast.CallExpr:
		if s, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok {
			if c, ok := lockMethodComponents[s.Sel.Name]; ok {
				return c, true
			}
		}
	}
	return "lock:" + types.ExprString(recv), false
}

// isSpinlockExpr reports whether expr has type spinlock.Lock (or
// pointer to it). When type information is unavailable (stubbed
// imports in degraded mode), it falls back to the known field-name
// table.
func isSpinlockExpr(pkg *Package, expr ast.Expr) bool {
	if t := exprType(pkg, expr); t != nil {
		return isNamed(t, "internal/spinlock", "Lock")
	}
	if s, ok := ast.Unparen(expr).(*ast.SelectorExpr); ok {
		_, known := lockFieldComponents[s.Sel.Name]
		return known
	}
	if c, ok := ast.Unparen(expr).(*ast.CallExpr); ok {
		if s, ok := ast.Unparen(c.Fun).(*ast.SelectorExpr); ok {
			_, known := lockMethodComponents[s.Sel.Name]
			return known
		}
	}
	return false
}

// isHypervisorExpr reports whether expr is a *hyp.Hypervisor; with no
// type info the helper-name match alone is accepted.
func isHypervisorExpr(pkg *Package, expr ast.Expr) bool {
	t := exprType(pkg, expr)
	if t == nil {
		return true
	}
	return isNamed(t, "internal/hyp", "Hypervisor")
}

// exprType returns the (valid) type of expr, or nil.
func exprType(pkg *Package, expr ast.Expr) types.Type {
	tv, ok := pkg.Info.Types[expr]
	if !ok || tv.Type == nil {
		return nil
	}
	if basic, ok := tv.Type.(*types.Basic); ok && basic.Kind() == types.Invalid {
		return nil
	}
	return tv.Type
}

// isNamed reports whether t (after pointer indirection) is the named
// type pkgSuffix.name.
func isNamed(t types.Type, pkgSuffix, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Name() == name && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// ownerComponent resolves a lock=owner call site: the component
// owning the pgtable reached via the receiver expression, e.g.
// hv.hostPGT.Map(...) → host. Returns "" when the receiver is a
// local/parameter table, which lock=owner deliberately leaves
// unchecked (boot-path construction, parameterized walkers).
func ownerComponent(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		if c, ok := tableOwnerFields[recv.Sel.Name]; ok {
			return c
		}
	}
	return ""
}
