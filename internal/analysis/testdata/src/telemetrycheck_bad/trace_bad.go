// Span-tracer golden input for the telemetrycheck analyzer: NewName
// interning outside init/constructor scope, and Begin/End pairing
// violations the span walker must catch.
package telemetrycheck_bad

import "ghostspec/internal/telemetry/trace"

// spanGood is package-var scope: interning here is legal.
var spanGood = trace.NewName("good")

// perVMSpanName interns a span name on what would be a per-exec path.
func perVMSpanName(vm string) trace.Name {
	return trace.NewName("vm:" + vm) // want:telemetrycheck
}

// newSpanSet is constructor scope: interning here is legal.
func newSpanSet(component string) trace.Name {
	return trace.NewName("lock.wait:" + component)
}

// discardedHandle drops the Begin handle on the floor; the span never
// ends and the lane's open stack leaks.
func discardedHandle(tr *trace.Tracer) {
	tr.Begin(0, spanGood) // want:telemetrycheck
}

// blankHandle is the same leak spelled with a blank assignment.
func blankHandle(tr *trace.Tracer) {
	_ = tr.Begin(0, spanGood) // want:telemetrycheck
}

// missingEndOnError ends the span on the happy path only; the early
// return leaks it.
func missingEndOnError(tr *trace.Tracer, fail bool) int {
	sp := tr.Begin(0, spanGood)
	if fail {
		return 1 // want:telemetrycheck
	}
	sp.End()
	return 0
}

// unbalancedBranches ends the span in one arm only, so the join sees
// two different open-span sets.
func unbalancedBranches(tr *trace.Tracer, cond bool) {
	sp := tr.Begin(0, spanGood)
	if cond { // want:telemetrycheck
		sp.End()
	}
}

// unbalancedLoop opens a span every iteration and never closes it.
func unbalancedLoop(tr *trace.Tracer, n int) {
	for i := 0; i < n; i++ { // want:telemetrycheck
		sp := tr.Begin(0, spanGood)
		_ = sp
	}
}

// deferredPair is the canonical legal shape.
func deferredPair(tr *trace.Tracer) {
	sp := tr.Begin(0, spanGood)
	defer sp.End()
}

// explicitPair ends the span on every path without defer, which is
// also legal.
func explicitPair(tr *trace.Tracer, cond bool) {
	sp := tr.Begin(0, spanGood)
	if cond {
		sp.End()
		return
	}
	sp.End()
}

// selectSpan begins a span in one select clause and never ends it.
func selectSpan(tr *trace.Tracer, ch chan int) {
	select { // want:telemetrycheck
	case <-ch:
		sp := tr.Begin(0, spanGood)
		_ = sp
	default:
	}
}
