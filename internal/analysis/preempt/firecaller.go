package preempt

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
)

// Reserved pseudo-point IDs. The deterministic scheduler records
// decisions at places that are not source positions — the boundary
// between two trace ops, and the re-grant after a vCPU blocked on a
// contended spinlock. They get fixed small IDs far below any FNV-1a
// hash; init-time indexing panics if a generated point ever collides.
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

// frameKey locates a table point from a runtime call frame: frames
// carry absolute file paths and no column, so the index is keyed by
// base name + line + kind and each candidate is verified against the
// frame's full path suffix.
type frameKey struct {
	base string
	line int
	kind Kind
}

var (
	frameOnce  sync.Once
	frameIndex map[frameKey]*Point
)

func buildFrameIndex() {
	frameIndex = make(map[frameKey]*Point, len(generatedPoints))
	for i := range generatedPoints {
		p := &generatedPoints[i]
		if p.ID == PointBoundary || p.ID == PointLockWait {
			panic(fmt.Sprintf("preempt: generated point %s:%d collides with reserved pseudo-point ID %d",
				p.File, p.Line, p.ID))
		}
		k := frameKey{base: pathBase(p.File), line: p.Line, kind: p.Kind}
		// Two same-kind points on one line (rare — a multi-call line)
		// resolve to the leftmost deterministically.
		if prev, ok := frameIndex[k]; !ok || p.Col < prev.Col {
			frameIndex[k] = p
		}
	}
}

// prefixDepth is how many PCs FireCaller unwinds: the crossing's
// caller and the frames above it. The deepest resolution in the module
// needs four: a TLBI reaches the arch TLB through the component's
// invalidation callback and pgtable's notifyTLBI before the outermost
// matching frame, mutateRange's break-before-make line. Two more
// frames are margin for one extra helper level on either side; a
// crossing whose point lies past the prefix is caught by the
// full-stack twin (VerifyResolution), which CI runs with inlining on
// and off.
const prefixDepth = 6

// VerifyResolution, when set, makes every crossing of a bound domain
// also resolve its point from the full call stack with resolveFrames
// and panic if the two disagree — the differential twin of FireCaller's
// fixed-depth prefix and of the static points passed to Fire. Set it
// before any domain is bound (a test package's init).
var VerifyResolution bool

// FireCaller reports to d's bound scheduler a crossing of the table
// point of the given kind found on the calling stack. The spinlock
// Lock/Unlock and the arch TLB invalidations call it on the domain of
// the system they belong to: the event's table identity is the *call
// site* — possibly several frames up, through the hypervisor's lock
// helpers and the page tables' invalidation callbacks — and resolving
// it from the stack keeps the primitives' own source files out of the
// table's content addressing.
//
// Unbound (or nil) this is one atomic load. Bound, it is an unwind of
// prefixDepth PCs plus one memo probe (see resolve).
func (d *Domain) FireCaller(kind Kind) {
	s := d.Bound()
	if s == nil {
		return
	}
	var pcs [prefixDepth]uintptr
	n := runtime.Callers(2, pcs[:])
	p := resolve(kind, &pcs, n)
	if VerifyResolution {
		verifyResolution(kind, p)
	}
	if p != nil {
		s.Crossing(*p)
	}
}

// Fire reports a crossing of the known point p to d's bound scheduler,
// with no unwind: for call sites whose table point is fixed, like the
// pgtable walker's visitor dispatches. Under VerifyResolution the
// caller's stack must resolve to p too. Unbound (or nil) this is one
// atomic load.
func (d *Domain) Fire(p *Point) {
	if d != nil && d.bound.Load() != nil {
		d.fire(p)
	}
}

// fire is Fire's bound path, kept out of line so that the unbound path
// inlines into the page-table walker's dispatch.
func (d *Domain) fire(p *Point) {
	s := d.Bound()
	if s == nil {
		return // unbound since the check
	}
	if VerifyResolution {
		verifyResolution(p.Kind, p)
	}
	s.Crossing(*p)
}

// memoKey is a resolution's memo slot: the point kind and the
// prefixDepth-PC stack prefix (zero-padded when the stack is shorter).
type memoKey struct {
	kind Kind
	pcs  [prefixDepth]uintptr
}

// memo is read-mostly: a program has a bounded set of call-stack
// prefixes that reach a preemption point, each resolved once.
var (
	memoMu sync.RWMutex
	memo   = map[memoKey]*Point{}
)

// resolve returns the table point of the given kind among the first n
// of pcs, or nil. The same PCs always symbolize to the same frames, so
// a prefix's resolution is memoized by its PCs; a miss symbolizes it
// with resolveFrames.
func resolve(kind Kind, pcs *[prefixDepth]uintptr, n int) *Point {
	k := memoKey{kind, *pcs}
	memoMu.RLock()
	p, ok := memo[k]
	memoMu.RUnlock()
	if !ok {
		p = resolveMiss(k, n)
	}
	return p
}

// resolveMiss resolves k from its own copy of the PCs (symbolizing
// lets them escape; the caller's array stays on its stack).
func resolveMiss(k memoKey, n int) *Point {
	p := resolveFrames(k.kind, k.pcs[:n])
	memoMu.Lock()
	memo[k] = p
	memoMu.Unlock()
	return p
}

// verifyResolution resolves the crossing's point from the full stack
// above its caller and panics unless it is got. (The frames of this
// package between the crossing's call site and here name no point.)
func verifyResolution(kind Kind, got *Point) {
	var pcs [64]uintptr
	n := runtime.Callers(3, pcs[:])
	if want := resolveFrames(kind, pcs[:n]); pointID(want) != pointID(got) {
		panic(fmt.Sprintf("preempt: %s crossing resolved to %s, but the full stack names %s",
			kind, describe(got), describe(want)))
	}
}

func pointID(p *Point) uint64 {
	if p == nil {
		return 0
	}
	return p.ID
}

func describe(p *Point) string {
	if p == nil {
		return "no point"
	}
	return fmt.Sprintf("%s:%d (%s)", p.File, p.Line, p.Func)
}

// resolveFrames symbolizes pcs and returns the matching table point.
// Of all matching frames the outermost wins: for `hv.lockHost(cpu)`
// both the helper's internal `Lock()` line and the hypercall's call
// line are table points, and the caller-specific one names the window
// a schedule actually distinguishes.
func resolveFrames(kind Kind, pcs []uintptr) *Point {
	frameOnce.Do(buildFrameIndex)
	frames := runtime.CallersFrames(pcs)
	var match *Point
	for {
		f, more := frames.Next()
		if f.Line > 0 {
			if p, ok := frameIndex[frameKey{base: pathBase(f.File), line: f.Line, kind: kind}]; ok &&
				strings.HasSuffix(f.File, "/"+p.File) {
				match = p // keep the latest: outermost matching frame
			}
		}
		if !more {
			return match
		}
	}
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
