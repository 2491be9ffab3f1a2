// Package preempt is the runtime half of ghostlint's preemption-point
// checker: a checked-in table (points_gen.go, regenerated with
// `go run ./cmd/ghostlint -write-preempt` and drift-gated in CI) of
// every lock acquire/release, TLBI emission, and page-table visitor
// step in the module that names a point, plus the per-system Domain
// that reports crossings of them.
//
// Each such call passes its point as an argument: a package-level
// variable initialised once with At(kind, component, func, ordinal),
// which ghostlint checks against the call it is passed at. A crossing
// therefore knows its point without looking at the stack.
//
// This is the hook list the deterministic multi-CPU scheduler
// consumes: a schedule is a sequence of point IDs at which control
// transfers between virtual CPUs. An ID is the hash of the point's
// name — kind, component, file, function and ordinal — so a recorded
// schedule replays bit-identically across edits that move lines, and
// fails loudly, rather than silently diverging, when a point is added,
// removed or renamed.
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

// Point is one statically-extracted preemption point.
type Point struct {
	// ID is the FNV-1a hash of the point's name,
	// "kind|component|file|func|ordinal": stable while the call stays
	// in its function, wherever its line moves.
	ID uint64
	// Kind classifies the event at this point.
	Kind Kind
	// Component is the ranked lock component for lock points, ""
	// otherwise.
	Component string
	// Func is the enclosing function.
	Func string
	// Ordinal counts the points of the same kind and component before
	// this one in Func, in source order.
	Ordinal int
	// File is module-root-relative; Line/Col locate the call.
	File string
	Line int
	Col  int
}

// Points returns the full table, sorted by (file, line, col). The
// slice is shared — callers must not modify it.
func Points() []Point { return generatedPoints }

var (
	indexOnce sync.Once
	byID      map[uint64]*Point
	byKind    map[Kind][]Point
)

func buildIndex() {
	byID = make(map[uint64]*Point, len(generatedPoints))
	byKind = make(map[Kind][]Point)
	for i := range generatedPoints {
		p := &generatedPoints[i]
		byID[p.ID] = p
		byKind[p.Kind] = append(byKind[p.Kind], *p)
	}
}

// ByID looks up a point by its stable ID.
func ByID(id uint64) (Point, bool) {
	indexOnce.Do(buildIndex)
	p, ok := byID[id]
	if !ok {
		return Point{}, false
	}
	return *p, true
}

// ByKind returns the points of one kind, in table order. The slice is
// shared — callers must not modify it.
func ByKind(k Kind) []Point {
	indexOnce.Do(buildIndex)
	return byKind[k]
}

// At returns the table point of the given kind and component that is
// the ordinal-th such point in function fn. Call sites bind it once,
// to a package-level variable they pass to the lock or TLBI call it
// names; ghostlint checks each variable against its call. At panics
// when the table has no such point or more than one (regenerate the
// table with `go run ./cmd/ghostlint -write-preempt`).
func At(kind Kind, component, fn string, ordinal int) *Point {
	var got *Point
	for i := range generatedPoints {
		p := &generatedPoints[i]
		if p.Kind == kind && p.Component == component && p.Func == fn && p.Ordinal == ordinal {
			if got != nil {
				panic(fmt.Sprintf("preempt: two %s points %q #%d in %s (%s, %s)", kind, component, ordinal, fn, got.File, p.File))
			}
			got = p
		}
	}
	if got == nil {
		panic(fmt.Sprintf("preempt: no %s point %q #%d in %s (run ghostlint -write-preempt)", kind, component, ordinal, fn))
	}
	return got
}

// Reserved pseudo-point IDs. The deterministic scheduler records
// decisions at places that are not source positions — the boundary
// between two trace ops, and the re-grant after a vCPU blocked on a
// contended spinlock. They get fixed small IDs far below any FNV-1a
// hash (TestGeneratedTable checks that no table point collides).
const (
	// PointBoundary marks an op-boundary decision: the vCPU finished
	// one trace op and parks before starting the next (also the
	// stream-start park before its first op).
	PointBoundary uint64 = 1
	// PointLockWait marks a vCPU resuming after it blocked on a
	// spinlock another vCPU held.
	PointLockWait uint64 = 2
)

// Known reports whether id is a table point or a reserved
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
	// Crossing blocks the running vCPU at p, a table point, until the
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
