// Package trace is the hypervisor's span tracer: begin/end intervals
// with parent nesting, recorded into fixed-size per-lane rings the way
// the flight recorder keeps per-CPU trap rings. Where the metrics
// registry answers "how often and how long on average", spans answer
// "where did *this* execution's time actually go" — the attribution
// question every per-layer speed-up needs a quantified baseline for.
//
// A lane is a serialisation domain: one goroutine begins and ends
// spans on a lane at a time, so the lane's open-span stack gives every
// span its parent for free. The campaign engine assigns one lane per
// worker (each worker drives its private system single-threaded);
// standalone tools use lane 0. Concurrent use of one lane is
// memory-safe (the lane is mutex-guarded) but garbles nesting — the
// same contract as interleaving two commentaries in one logbook.
// Cross-goroutine emitters (the spinlock slow-acquisition path) bypass
// the stack with Emit, which records a completed parentless span.
//
// Tracing is globally gated and off by default: when Enabled() is
// false every Begin/End reduces to one atomic load and a branch, with
// zero allocation — the same discipline as telemetry.Disabled(), and
// benchmarked the same way (BenchmarkHypercallTraceOn/Off). Span
// names are interned once via NewName (init/constructor scope only,
// enforced by ghostlint's telemetrycheck); the hot path carries only
// the integer ID.
package trace

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// enabled is the global gate. Tracing is opt-in: profile runs and the
// -trace-out / -spans flags flip it on.
var enabled atomic.Bool

// Enabled reports whether span recording is globally on.
func Enabled() bool { return enabled.Load() }

// SetEnabled flips the global tracing switch.
func SetEnabled(v bool) { enabled.Store(v) }

// Name is an interned span name. The zero value is valid and names the
// reserved "?" entry, so a forgotten registration cannot crash the hot
// path.
type Name struct{ id int32 }

// names is the global intern table. Registration is boot-time work
// (mutex + map); the hot path never touches it.
var names = struct {
	mu   sync.Mutex
	byID []string
	ids  map[string]int32
}{
	byID: []string{"?"},
	ids:  map[string]int32{"?": 0},
}

// NewName interns a span name, returning the existing entry when the
// string was registered before — per-VM lock names re-register on
// every boot and must not grow the table. Like metric registration,
// this allocates and locks; call it from init or constructor scope
// only (telemetrycheck enforces this).
func NewName(s string) Name {
	names.mu.Lock()
	defer names.mu.Unlock()
	if id, ok := names.ids[s]; ok {
		return Name{id: id}
	}
	id := int32(len(names.byID))
	names.byID = append(names.byID, s)
	names.ids[s] = id
	return Name{id: id}
}

// String returns the interned name.
func (n Name) String() string {
	names.mu.Lock()
	defer names.mu.Unlock()
	if int(n.id) < len(names.byID) {
		return names.byID[n.id]
	}
	return "?"
}

// Span is one completed interval on a lane. Start is the offset from
// the tracer's construction; Parent is the name of the innermost span
// open on the lane when this one began (-1 when none — a root span or
// an Emit).
type Span struct {
	Name   Name
	Lane   int
	Start  time.Duration
	Dur    time.Duration
	Depth  int
	Parent int32
}

// NameString returns the span's interned name.
func (s Span) NameString() string { return s.Name.String() }

// ParentString returns the parent span's name, or "" for roots.
func (s Span) ParentString() string {
	if s.Parent < 0 {
		return ""
	}
	return Name{id: s.Parent}.String()
}

// open is one in-flight span on a lane's stack.
type open struct {
	name  Name
	start time.Duration
}

// lane is one serialisation domain: an open-span stack plus a
// fixed-size completed-span ring, both under one mutex (uncontended
// when the lane is driven by a single goroutine, its intended use).
type lane struct {
	mu    sync.Mutex
	stack []open
	buf   []Span
	n     uint64 // completed spans ever recorded on this lane
}

// DefaultDepth is the per-lane ring capacity when NewTracer is given
// zero — enough for live introspection of recent activity; profile
// runs size their rings to hold the whole campaign.
const DefaultDepth = 4096

// Tracer records spans into per-lane rings. A nil *Tracer is a valid
// disabled tracer: Begin/End/Emit are no-ops, so instrumented code
// threads one pointer regardless of configuration (the *arch.TLB
// convention).
type Tracer struct {
	lanes []lane
	base  time.Time
}

// NewTracer builds a tracer with nrLanes rings of the given depth
// (DefaultDepth when depth <= 0).
func NewTracer(nrLanes, depth int) *Tracer {
	if nrLanes <= 0 {
		nrLanes = 1
	}
	if depth <= 0 {
		depth = DefaultDepth
	}
	t := &Tracer{lanes: make([]lane, nrLanes), base: time.Now()}
	for i := range t.lanes {
		t.lanes[i].buf = make([]Span, depth)
		t.lanes[i].stack = make([]open, 0, 32)
	}
	return t
}

// Lanes returns the lane count (0 for a nil tracer).
func (t *Tracer) Lanes() int {
	if t == nil {
		return 0
	}
	return len(t.lanes)
}

// SpanHandle is the value returned by Begin and consumed by End. The
// zero value (from a disabled or nil tracer) is a valid no-op handle,
// so callers need no conditionals around the pair.
type SpanHandle struct {
	t    *Tracer
	lane int32
	ok   bool
}

// Begin opens a span on a lane. When tracing is disabled (or the
// tracer is nil, or the lane out of range) it is one atomic load and a
// branch, allocation-free, and returns the no-op handle.
func (t *Tracer) Begin(laneID int, n Name) SpanHandle {
	if t == nil || !enabled.Load() {
		return SpanHandle{}
	}
	if laneID < 0 || laneID >= len(t.lanes) {
		return SpanHandle{}
	}
	l := &t.lanes[laneID]
	l.mu.Lock()
	l.stack = append(l.stack, open{name: n, start: time.Since(t.base)})
	l.mu.Unlock()
	return SpanHandle{t: t, lane: int32(laneID), ok: true}
}

// End closes the innermost open span on the handle's lane, recording
// the completed span into the lane ring. End on the zero handle is a
// no-op, so a span begun while tracing was off ends silently even if
// tracing was enabled in between.
func (h SpanHandle) End() {
	if !h.ok {
		return
	}
	l := &h.t.lanes[h.lane]
	now := time.Since(h.t.base)
	l.mu.Lock()
	if len(l.stack) == 0 {
		l.mu.Unlock()
		return
	}
	o := l.stack[len(l.stack)-1]
	l.stack = l.stack[:len(l.stack)-1]
	parent := int32(-1)
	if len(l.stack) > 0 {
		parent = l.stack[len(l.stack)-1].name.id
	}
	l.record(Span{
		Name:   o.name,
		Lane:   int(h.lane),
		Start:  o.start,
		Dur:    now - o.start,
		Depth:  len(l.stack),
		Parent: parent,
	})
	l.mu.Unlock()
}

// Emit records an already-measured span without touching the lane's
// open stack: the cross-goroutine path (spinlock slow acquisitions
// measure on the waiting goroutine, which owns no lane). The span is
// parentless at depth 0.
func (t *Tracer) Emit(laneID int, n Name, start time.Time, dur time.Duration) {
	if t == nil || !enabled.Load() {
		return
	}
	if laneID < 0 || laneID >= len(t.lanes) {
		return
	}
	l := &t.lanes[laneID]
	l.mu.Lock()
	l.record(Span{Name: n, Lane: laneID, Start: start.Sub(t.base), Dur: dur, Parent: -1})
	l.mu.Unlock()
}

// record appends to the ring; caller holds the lane mutex.
func (l *lane) record(s Span) {
	l.buf[l.n%uint64(len(l.buf))] = s
	l.n++
}

// Dropped returns the number of completed spans lost to ring
// wraparound across all lanes. Profile runs size their rings so this
// stays zero; a non-zero value marks an aggregate as partial.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	var dropped uint64
	for i := range t.lanes {
		l := &t.lanes[i]
		l.mu.Lock()
		if depth := uint64(len(l.buf)); l.n > depth {
			dropped += l.n - depth
		}
		l.mu.Unlock()
	}
	return dropped
}

// Spans returns every retained completed span, across all lanes,
// sorted by start time. Open spans are not included.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for i := range t.lanes {
		l := &t.lanes[i]
		l.mu.Lock()
		depth := uint64(len(l.buf))
		n := l.n
		if n > depth {
			n = depth
		}
		for j := l.n - n; j < l.n; j++ {
			out = append(out, l.buf[j%depth])
		}
		l.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Lane < out[j].Lane
	})
	return out
}

// NameAgg is one span name's aggregate over the retained spans.
type NameAgg struct {
	Name  string
	Count uint64
	Total time.Duration
}

// Aggregate folds the retained spans into per-name totals, sorted by
// descending total time. It is derived from the rings, so wraparound
// (see Dropped) makes it a lower bound.
func (t *Tracer) Aggregate() []NameAgg {
	byName := map[string]*NameAgg{}
	for _, s := range t.Spans() {
		name := s.NameString()
		a, ok := byName[name]
		if !ok {
			a = &NameAgg{Name: name}
			byName[name] = a
		}
		a.Count++
		a.Total += s.Dur
	}
	out := make([]NameAgg, 0, len(byName))
	for _, a := range byName {
		out = append(out, *a)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Name < out[j].Name
	})
	return out
}
