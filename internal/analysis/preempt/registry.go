// Package preempt holds the preemption points of the module — every
// lock acquire/release, TLBI emission, and page-table visitor step
// that a deterministic scheduler may park a virtual CPU at — and the
// per-system Domain that reports crossings of them.
//
// Each such call passes its point as an argument: a package-level
// variable initialised once with At(kind, component, func, ordinal).
// That declaration is the point's only copy: At builds and registers
// it, and ghostlint's preemptcheck holds it to the call it is passed
// at. A crossing therefore knows its point without looking at the
// stack.
//
// This is the hook list the deterministic multi-CPU scheduler
// consumes: a schedule is a sequence of point IDs at which control
// transfers between virtual CPUs. An ID is the hash of the point's
// name — kind, component, package, function and ordinal — so a
// recorded schedule replays bit-identically across edits that move
// lines, and fails loudly, rather than silently diverging, when a
// point is added, removed or renamed.
//
// There is no process-global hook. Each simulated system owns one
// Domain and hands it to its spinlocks, TLB and page tables at
// construction; a scheduler driving that system binds the domain for
// the duration of its run. Systems nobody schedules — other campaign
// workers, serial replays — stay unbound, and their crossings cost one
// atomic load.
package preempt

import (
	"fmt"
	"hash/fnv"
	"path"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind classifies a preemption point.
type Kind string

const (
	// KindLockAcquire is a spinlock acquisition — a LockAt call or a
	// lock*-helper call on the hypervisor.
	KindLockAcquire Kind = "lock-acquire"
	// KindLockRelease is the matching release.
	KindLockRelease Kind = "lock-release"
	// KindTLBI is a TLB-invalidation emission — one edge of a
	// break-before-make window.
	KindTLBI Kind = "tlbi"
	// KindVisitorStep is one per-entry callback of a page-table walk.
	KindVisitorStep Kind = "visitor-step"
)

// Point is one preemption point, as declared with At.
type Point struct {
	// ID is the FNV-1a hash of Name(): stable while the call stays in
	// its function, wherever its line moves.
	ID uint64
	// Kind classifies the event at this point.
	Kind Kind
	// Component is the ranked lock component for lock points, ""
	// otherwise.
	Component string
	// Pkg is the declaring package's import path; Func is the function
	// the point's call is in.
	Pkg, Func string
	// Ordinal counts the points of the same kind and component before
	// this one in Func, in source order.
	Ordinal int
}

// Name is what the ID hashes: "kind|component|pkg.func|ordinal".
func (p *Point) Name() string {
	return fmt.Sprintf("%s|%s|%s.%s|%d", p.Kind, p.Component, p.Pkg, p.Func, p.Ordinal)
}

// String renders the point for schedules and logs:
// "hyp.hostShareHyp:lock-acquire:host#0", or "pgtable.mutateRange:tlbi#1"
// when it has no component.
func (p *Point) String() string {
	s := path.Base(p.Pkg) + "." + p.Func + ":" + string(p.Kind)
	if p.Component != "" {
		s += ":" + p.Component
	}
	return fmt.Sprintf("%s#%d", s, p.Ordinal)
}

var (
	mu       sync.Mutex
	points   []*Point // in registration order
	registry = map[uint64]*Point{}
)

// At declares the ordinal-th point of the given kind and component in
// function fn of the calling package, and registers it. Call sites bind
// it once, to a package-level variable they pass to the lock, TLBI or
// visitor call it names; ghostlint's preemptcheck checks each variable
// against its call. The package is the caller's, read from the stack:
// a package-level initialiser runs in its package's init. At panics on
// a second declaration of the same point, or on a name whose hash is
// taken.
func At(kind Kind, component, fn string, ordinal int) *Point {
	var pc [1]uintptr
	runtime.Callers(2, pc[:])
	caller, _ := runtime.CallersFrames(pc[:]).Next()
	p := &Point{Kind: kind, Component: component, Pkg: pkgOf(caller.Function), Func: fn, Ordinal: ordinal}
	h := fnv.New64a()
	h.Write([]byte(p.Name()))
	p.ID = h.Sum64()

	mu.Lock()
	defer mu.Unlock()
	if q := registry[p.ID]; q != nil || p.ID == PointBoundary || p.ID == PointLockWait {
		panic(fmt.Sprintf("preempt: point %s declared twice, or its ID %#x is taken", p.Name(), p.ID))
	}
	registry[p.ID] = p
	points = append(points, p)
	return p
}

// pkgOf cuts a symbol name ("ghostspec/internal/hyp.init") to its
// package's import path: the first dot after the last slash ends the
// path (the linker escapes any dot in the path's last element).
func pkgOf(sym string) string {
	slash := strings.LastIndex(sym, "/") + 1
	if dot := strings.Index(sym[slash:], "."); dot >= 0 {
		return sym[:slash+dot]
	}
	return sym
}

// Points returns the registered points, in registration order.
func Points() []*Point {
	mu.Lock()
	defer mu.Unlock()
	return append([]*Point(nil), points...)
}

// ByID looks up a registered point by its stable ID.
func ByID(id uint64) (*Point, bool) {
	mu.Lock()
	defer mu.Unlock()
	p, ok := registry[id]
	return p, ok
}

// Reserved pseudo-point IDs. The deterministic scheduler records
// decisions at places that are not source positions — the boundary
// between two trace ops, and the re-grant after a vCPU blocked on a
// contended spinlock. They get fixed small IDs far below any FNV-1a
// hash (At refuses a point that collides).
const (
	// PointBoundary marks an op-boundary decision: the vCPU finished
	// one trace op and parks before starting the next (also the
	// stream-start park before its first op).
	PointBoundary uint64 = 1
	// PointLockWait marks a vCPU resuming after it blocked on a
	// spinlock another vCPU held.
	PointLockWait uint64 = 2
)

// Known reports whether id is a registered point or a reserved
// pseudo-point — the validity check for replayed schedules.
func Known(id uint64) bool {
	if id == PointBoundary || id == PointLockWait {
		return true
	}
	_, ok := ByID(id)
	return ok
}

// Scheduler receives the crossings of a bound Domain. Under one-token
// scheduling exactly one virtual CPU of the system runs at a time, so
// a crossing needs no caller identity: it belongs to the scheduler's
// running vCPU.
type Scheduler interface {
	// Crossing blocks the running vCPU at p, a registered point, until the
	// schedule says it may proceed.
	Crossing(p *Point)
}

// Domain is one system's preemption domain: the slot a scheduler binds
// while it drives the system. The zero value is an unbound domain, and
// a nil *Domain is a valid domain nobody can bind (objects built
// outside a system).
type Domain struct {
	bound atomic.Pointer[Scheduler]
}

// Bind attaches s to the domain (nil detaches). Binding a domain that
// is already bound panics: two schedulers driving one system would
// each take the other's crossings as their own.
func (d *Domain) Bind(s Scheduler) {
	if s == nil {
		d.bound.Store(nil)
		return
	}
	if !d.bound.CompareAndSwap(nil, &s) {
		panic("preempt: domain is already bound to a scheduler")
	}
}

// Bound returns the bound scheduler, or nil.
func (d *Domain) Bound() Scheduler {
	if d == nil {
		return nil
	}
	if p := d.bound.Load(); p != nil {
		return *p
	}
	return nil
}

// Fire reports a crossing of p to d's bound scheduler. The spinlock's
// LockAt/UnlockAt, the arch TLB's invalidations and the page-table
// walker call it with the point their caller passed; a nil p (a bare
// Lock/Unlock, such as a deferred release) crosses nothing. Unbound (or
// nil) this is one atomic load.
func (d *Domain) Fire(p *Point) {
	if p != nil && d != nil && d.bound.Load() != nil {
		d.fire(p)
	}
}

// fire is Fire's bound path, kept out of line so that the unbound path
// inlines into its callers.
func (d *Domain) fire(p *Point) {
	if s := d.Bound(); s != nil { // unbound since the check otherwise
		s.Crossing(p)
	}
}
