package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"ghostspec/internal/telemetry/trace"
)

// emitted reports whether a span is one the program records with
// Tracer.Emit: measured on another goroutine (a parked vCPU, a lock
// waiter) and written to the lane without touching its open-span stack.
// Such a span overlaps whatever the lane was running at the time, so it
// is wait time, never a child to subtract from a parent.
func emitted(name string) bool {
	return name == "sched.preempt" || strings.HasPrefix(name, "lock.wait:")
}

// family folds per-instance span names into their layer term:
// "hyp.trap:host_share_hyp" -> "hyp.trap", "lock.wait:host" -> "lock.wait".
func family(name string) string {
	if i := strings.IndexByte(name, ':'); i >= 0 {
		return name[:i]
	}
	return name
}

// spanStats is the self-time accounting of one or more traced runs.
type spanStats struct {
	self  map[string]time.Duration // nested spans: duration minus children
	total map[string]time.Duration // nested spans: full duration
	count map[string]int
	wait  map[string]time.Duration // emitted spans: wait time
	waits map[string]int
	// execMS holds every exec span's duration; execWall is the time the
	// self-time shares are taken against (every root span).
	execMS   []float64
	execWall time.Duration
	// negative counts spans whose children cover more than the span
	// itself; unnested counts spans that overlap an open span without
	// nesting in it. Both stay zero when the lane's spans form a proper
	// tree.
	negative, unnested int
}

func newSpanStats() *spanStats {
	return &spanStats{
		self:  map[string]time.Duration{},
		total: map[string]time.Duration{},
		count: map[string]int{},
		wait:  map[string]time.Duration{},
		waits: map[string]int{},
	}
}

// add folds one tracer's retained spans into the accounting. A span's
// parent is the innermost earlier span on its lane whose interval
// contains it; its self time is its duration minus its children's.
// Parents are recovered from the intervals, not from the recorded
// parent names, because several goroutines share one lane under the
// deterministic scheduler and the recorded names can then swap.
func (st *spanStats) add(spans []trace.Span) {
	byLane := map[int][]trace.Span{}
	for _, s := range spans {
		name := s.NameString()
		if emitted(name) {
			st.wait[family(name)] += s.Dur
			st.waits[family(name)]++
			continue
		}
		byLane[s.Lane] = append(byLane[s.Lane], s)
	}
	for _, lane := range byLane {
		sort.SliceStable(lane, func(i, j int) bool {
			a, b := lane[i], lane[j]
			if a.Start != b.Start {
				return a.Start < b.Start
			}
			if a.Dur != b.Dur {
				return a.Dur > b.Dur
			}
			return a.Depth < b.Depth
		})
		children := make([]time.Duration, len(lane))
		var stack []int
		end := func(i int) time.Duration { return lane[i].Start + lane[i].Dur }
		for i, s := range lane {
			for len(stack) > 0 && end(stack[len(stack)-1]) <= s.Start {
				stack = stack[:len(stack)-1]
			}
			if len(stack) == 0 {
				st.execWall += s.Dur
			} else if top := stack[len(stack)-1]; end(i) <= end(top) {
				children[top] += s.Dur
			} else {
				st.unnested++
			}
			stack = append(stack, i)
		}
		for i, s := range lane {
			f := family(s.NameString())
			self := s.Dur - children[i]
			if self < 0 {
				st.negative++
			}
			st.self[f] += self
			st.total[f] += s.Dur
			st.count[f]++
			if f == "exec" {
				st.execMS = append(st.execMS, float64(s.Dur)/float64(time.Millisecond))
			}
		}
	}
}

// perCount returns a family's total span time per span, in unit u.
func (st *spanStats) perCount(f string, u time.Duration) float64 {
	return ratio(float64(st.total[f]), float64(st.count[f])*float64(u))
}

// largestSelf returns the family with the most self time.
func (st *spanStats) largestSelf() string {
	best := ""
	for f, d := range st.self {
		if best == "" || d > st.self[best] || (d == st.self[best] && f < best) {
			best = f
		}
	}
	return best
}

// print writes the self-time and wait-time table, largest first, as
// shares of the traced wall time.
func (st *spanStats) print(w io.Writer) {
	type row struct {
		name string
		d    time.Duration
		n    int
	}
	var rows []row
	for f, d := range st.self {
		rows = append(rows, row{f, d, st.count[f]})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].d > rows[j].d })
	fmt.Fprintf(w, "self time over %v of traced wall (%d unnested, %d negative); largest term %s:\n",
		st.execWall.Round(time.Millisecond), st.unnested, st.negative, st.largestSelf())
	for _, r := range rows {
		fmt.Fprintf(w, "  %-22s %9d spans %10.1fms %6.2f%%\n", r.name, r.n,
			float64(r.d)/float64(time.Millisecond), 100*ratio(float64(r.d), float64(st.execWall)))
	}
	for f, d := range st.wait {
		fmt.Fprintf(w, "  wait %-17s %9d spans %10.1fms (overlaps the lane; not subtracted)\n",
			f, st.waits[f], float64(d)/float64(time.Millisecond))
	}
}
