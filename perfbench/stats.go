package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"

	"ghostspec/internal/randtest"
	"ghostspec/internal/telemetry"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no values.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks, or 0 for no values. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0, so no metric is ever NaN or Inf.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the CPU time the whole process has used so far, user
// and system, across every thread — GC workers included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rtSample is a reading of the Go runtime's own accounting.
type rtSample struct {
	allocBytes float64 // cumulative heap allocation
	gcCPU      float64 // cumulative GC CPU seconds (estimate)
}

var rtNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

func readRuntime() rtSample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return rtSample{allocBytes: float64(s[0].Value.Uint64()), gcCPU: s[1].Value.Float64()}
}

// liveHeapMB forces a full collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// counters is a reading of the program's own telemetry registry.
type counters struct {
	traps, checks           uint64
	cacheHits, cacheMisses  uint64
	cachePartial            uint64
	tlbHits, tlbMisses      uint64
	preemptions, lockWaitNS uint64
}

func readCounters() counters {
	s := telemetry.Snapshot()
	c := func(name string) uint64 {
		v, _ := s.Counter(name)
		return v
	}
	out := counters{
		traps:        c("hyp_traps_total"),
		checks:       c("ghost_checks_total"),
		cacheHits:    c("ghost_cache_hits_total"),
		cacheMisses:  c("ghost_cache_misses_total"),
		cachePartial: c("ghost_cache_partial_walks_total"),
		tlbHits:      c("tlb_hits_total"),
		tlbMisses:    c("tlb_misses_total"),
		preemptions:  c("sched_preemptions"),
	}
	for _, h := range s.Histograms {
		if strings.HasPrefix(h.Name, "spinlock_wait_ns{") {
			out.lockWaitNS += h.Sum
		}
	}
	return out
}

// sub returns the counter deltas c - o.
func (c counters) sub(o counters) counters {
	return counters{
		traps:        c.traps - o.traps,
		checks:       c.checks - o.checks,
		cacheHits:    c.cacheHits - o.cacheHits,
		cacheMisses:  c.cacheMisses - o.cacheMisses,
		cachePartial: c.cachePartial - o.cachePartial,
		tlbHits:      c.tlbHits - o.tlbHits,
		tlbMisses:    c.tlbMisses - o.tlbMisses,
		preemptions:  c.preemptions - o.preemptions,
		lockWaitNS:   c.lockWaitNS - o.lockWaitNS,
	}
}

// add accumulates deltas.
func (c *counters) add(o counters) {
	c.traps += o.traps
	c.checks += o.checks
	c.cacheHits += o.cacheHits
	c.cacheMisses += o.cacheMisses
	c.cachePartial += o.cachePartial
	c.tlbHits += o.tlbHits
	c.tlbMisses += o.tlbMisses
	c.preemptions += o.preemptions
	c.lockWaitNS += o.lockWaitNS
}

// deriveSeed returns the i-th seed derived from a benchmark seed, never
// zero (the campaign treats zero as "default").
func deriveSeed(seed int64, i int) int64 {
	if v := randtest.WorkerSeed(seed, i); v != 0 {
		return v
	}
	return 1
}
