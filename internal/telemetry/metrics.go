// Package telemetry is the hypervisor's observability layer: a
// zero-allocation, atomics-based metrics registry (counters, gauges,
// log₂-bucketed histograms), a per-CPU flight recorder of recent trap
// events, and snapshot encoders (JSON and Prometheus-style text).
//
// The paper's methodology depends on being able to see what the
// production hypervisor did; its authors bolted printing and diffing
// machinery onto pKVM for exactly this reason. This package is that
// machinery made systematic: trap dispatch, spinlock contention, the
// TLB, the scheduler and the oracle itself report here, each metric
// kept only because a test, a benchmark or a CLI summary reads it,
// and an oracle alarm carries the flight recorder's history of the
// trapping CPU instead of a single (pre, post) pair.
//
// Instrumentation is globally gated: when Disabled() reports true,
// every instrumentation site reduces to one atomic load and a branch
// (the CONFIG_NVHE_GHOST_SPEC=n analogue for telemetry). Metric
// objects are created once at registration; updating them never
// allocates.
package telemetry

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// disabled is the global kill switch. Telemetry is enabled by default;
// SetDisabled(true) turns every instrumentation site into a single
// atomic load + branch.
var disabled atomic.Bool

// Disabled reports whether telemetry is globally off. Instrumentation
// sites check it before doing any work (including reading the clock).
func Disabled() bool { return disabled.Load() }

// SetDisabled flips the global telemetry switch.
func SetDisabled(v bool) { disabled.Store(v) }

// ---------------------------------------------------------------------
// Instruments.

// Counter is a monotonically increasing counter. The zero value is
// unusable; obtain counters from a Registry so they appear in
// snapshots.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Name returns the registered name (including any label suffix).
func (c *Counter) Name() string { return c.name }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the registered name.
func (g *Gauge) Name() string { return g.name }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta (which may be negative).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// NrBuckets is the number of log₂ histogram buckets: bucket i counts
// observations v with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i),
// with v=0 in bucket 0. 64-bit values always fit.
const NrBuckets = 65

// Histogram is a log₂-bucketed histogram of uint64 observations
// (typically nanoseconds). Observations are lock-free atomic adds.
type Histogram struct {
	name    string
	count   atomic.Uint64
	sum     atomic.Uint64
	buckets [NrBuckets]atomic.Uint64
}

// Name returns the registered name.
func (h *Histogram) Name() string { return h.name }

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.buckets[bits.Len64(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// ObserveDuration records a duration in nanoseconds, clamping
// negatives (a clock step) to zero.
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d.Nanoseconds()))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// ---------------------------------------------------------------------
// Registry.

// Registry is a named collection of instruments. Lookup-or-create is
// mutex-guarded (registration is boot-time work); the instruments
// themselves are lock-free.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Default is the process-wide registry every package-level constructor
// registers into and Snapshot() reads.
var Default = NewRegistry()

// Counter returns the counter registered under name, creating it on
// first use. Names follow the Prometheus convention, with labels
// inline: `hyp_trap_latency_ns{reason="hvc"}`.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it
// on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{name: name}
		r.histograms[name] = h
	}
	return h
}

// Reset zeroes every registered instrument, keeping the registrations
// (and any held pointers) valid. Benchmarks use it to measure deltas.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
	}
	for _, h := range r.histograms {
		h.count.Store(0)
		h.sum.Store(0)
		for i := range h.buckets {
			h.buckets[i].Store(0)
		}
	}
}

// NewCounter registers a counter in the Default registry.
func NewCounter(name string) *Counter { return Default.Counter(name) }

// NewGauge registers a gauge in the Default registry.
func NewGauge(name string) *Gauge { return Default.Gauge(name) }

// NewHistogram registers a histogram in the Default registry.
func NewHistogram(name string) *Histogram { return Default.Histogram(name) }

// Reset zeroes every instrument in the Default registry.
func Reset() { Default.Reset() }

// sortedNames returns the keys of a map in sorted order; snapshots and
// encoders emit deterministically.
func sortedNames[T any](m map[string]T) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
