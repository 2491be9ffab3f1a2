// Package preempt is the runtime half of ghostlint's preemption-point
// extraction: a checked-in table (points_gen.go, regenerated with
// `go run ./cmd/ghostlint -write-preempt` and drift-gated in CI) of
// every lock acquire/release, TLBI emission, and page-table visitor
// step in the module, plus the per-system Domain that reports
// crossings of them.
//
// This is the hook list ROADMAP item 1's deterministic multi-CPU
// scheduler consumes: a schedule is a sequence of point IDs at which
// control transfers between virtual CPUs, and because IDs are
// content-addressed (hash of kind and source position) a recorded
// schedule replays bit-identically as long as the source is unchanged
// — and fails loudly, rather than silently diverging, when it is not.
//
// There is no process-global hook. Each simulated system owns one
// Domain and hands it to its spinlocks, TLB and page tables at
// construction; a scheduler driving that system binds the domain for
// the duration of its run. Systems nobody schedules — other campaign
// workers, serial replays — stay unbound, and their crossings cost one
// atomic load.
package preempt

import (
	"sync"
	"sync/atomic"
)

// Kind classifies a preemption point. The values mirror the analysis
// package's Kind* strings (the generator writes these constants).
type Kind string

const (
	// KindLockAcquire is a spinlock acquisition — a Lock/TryLock call
	// or a lock*-helper call on the hypervisor.
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
	// ID is stable across builds of identical source: the FNV-1a hash
	// of "kind|file|line|col".
	ID uint64
	// Kind classifies the event at this point.
	Kind Kind
	// Component is the ranked lock component for lock points, ""
	// otherwise.
	Component string
	// Func is the enclosing function.
	Func string
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

// Scheduler receives the crossings of a bound Domain. Under one-token
// scheduling exactly one virtual CPU of the system runs at a time, so
// a crossing needs no caller identity: it belongs to the scheduler's
// running vCPU.
type Scheduler interface {
	// Crossing blocks the running vCPU at p until the schedule says it
	// may proceed.
	Crossing(p Point)
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
