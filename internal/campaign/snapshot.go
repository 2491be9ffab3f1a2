// Snapshot-backed execution: each worker keeps one long-lived system
// and rewinds it between executions instead of booting a fresh one.
//
// The anchor is a per-worker base snapshot taken right after boot; all
// workers boot the same deterministic system, so they share one memory
// image (the first worker's) and verify their own boots against it.
// Corpus parents additionally carry a portable delta of their trace's
// end state: a child execution forks straight into the parent state —
// restore dirty frames, install the value state, swap the ghost
// checkpoint — and skips the replay phase entirely.
//
// Correctness is load-bearing, so restores are cross-checked against
// ground truth: a conformance differ boots a fresh system, replays the
// restored trace prefix onto it, and diffs memory frame by frame, the
// allocator pools, the CPU register files, and the ghost abstraction.
// It runs probabilistically during campaigns (Config.ConformanceEvery)
// and exhaustively in tests; any divergence is a fatal campaign error,
// not a finding — it means the fork machinery itself is broken.
package campaign

import (
	"fmt"

	"ghostspec/internal/arch"
	"ghostspec/internal/core/ghost"
	"ghostspec/internal/coverage"
	"ghostspec/internal/hyp"
	"ghostspec/internal/mem"
	"ghostspec/internal/proxy"
	"ghostspec/internal/randtest"
	"ghostspec/internal/telemetry/trace"
)

var (
	spanExecRestore = trace.NewName("exec.restore")
	spanSnapCapture = trace.NewName("snapshot.capture")
)

// worksys is one worker's long-lived system plus everything needed to
// rewind it: the hypervisor base snapshot, the host pool's boot state,
// and the ghost oracle's boot checkpoint (which preserves boot-layout
// alarms, so every forked execution still reports them).
type worksys struct {
	d         *proxy.Driver
	rec       *ghost.Recorder
	base      *hyp.Base
	hostBoot  mem.PoolSnapshot
	ghostBoot *ghost.Checkpoint
}

// parentSnap is the portable end state of a corpus trace: immutable
// pure data captured by whichever worker ran the trace, restorable by
// any worker on top of its own base.
type parentSnap struct {
	delta *hyp.Delta
	host  mem.PoolSnapshot
	ghost *ghost.Checkpoint
}

// sharedImage returns the campaign-wide base memory image, if any
// worker has published one yet.
func (e *Engine) sharedImage() *arch.MemImage {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.baseImg
}

func (e *Engine) publishImage(img *arch.MemImage) {
	e.mu.Lock()
	if e.baseImg == nil {
		e.baseImg = img
	}
	e.mu.Unlock()
}

// newWorksys boots one long-lived worker system and captures its base
// snapshot, adopting the campaign-wide shared image when this boot
// verifies bit-identical against it (the deterministic-boot normal
// case; a mismatch falls back to a private image and the conformance
// differ will police the consequences).
func (e *Engine) newWorksys(w int) (*worksys, error) {
	d, rec, _, err := e.bootSystem(w)
	if err != nil {
		return nil, err
	}
	sp := e.tracer.Begin(w, spanSnapCapture)
	defer sp.End()
	ws := &worksys{d: d, rec: rec}
	var adopted bool
	ws.base, adopted = d.HV.CaptureBase(e.sharedImage())
	if !adopted {
		e.publishImage(ws.base.Image())
	}
	ws.hostBoot = d.HostPool.Snapshot()
	ws.ghostBoot = rec.Checkpoint()
	return ws, nil
}

// restoreTo rewinds the worker's system to its base (snap nil) or to a
// corpus parent's end state, under the exec.restore span. Returns the
// number of memory frames rewritten.
func (e *Engine) restoreTo(w int, ws *worksys, snap *parentSnap) int {
	sp := e.tracer.Begin(w, spanExecRestore)
	defer sp.End()
	var dirty int
	if snap == nil {
		dirty = ws.base.RestoreBase()
		ws.d.HostPool.Restore(ws.hostBoot)
		ws.rec.RestoreCheckpoint(ws.ghostBoot)
	} else {
		dirty = ws.base.RestoreDelta(snap.delta)
		ws.d.HostPool.Restore(snap.host)
		ws.rec.RestoreCheckpoint(snap.ghost)
		e.workers[w].snapParentHits.Add(1)
	}
	e.workers[w].snapRestores.Add(1)
	e.workers[w].snapDirtyFrames.Add(int64(dirty))
	return dirty
}

// captureParent snapshots the system's current state — the just-run
// trace's end state — for attachment to the corpus entry, under the
// snapshot.capture span.
func (e *Engine) captureParent(w int, ws *worksys) *parentSnap {
	sp := e.tracer.Begin(w, spanSnapCapture)
	defer sp.End()
	return &parentSnap{
		delta: ws.base.CaptureDelta(),
		host:  ws.d.HostPool.Snapshot(),
		ghost: ws.rec.Checkpoint(),
	}
}

// conformance diffs a restored system against a reference system in
// ground-truth state, returning human-readable divergences (at most
// max): memory frame by frame, both allocator pools, the CPU register
// files and per-CPU hypervisor state, and the ghost abstraction.
func conformance(d *proxy.Driver, rec *ghost.Recorder, ref *proxy.Driver, refRec *ghost.Recorder, max int) []string {
	var out []string
	add := func(format string, args ...any) {
		if len(out) < max {
			out = append(out, fmt.Sprintf(format, args...))
		}
	}
	for _, diff := range arch.DiffMemory(d.HV.Mem, ref.HV.Mem, max) {
		add("memory: %s", diff)
	}
	if !d.HostPool.Snapshot().Equal(ref.HostPool.Snapshot()) {
		add("host pool allocation state diverges")
	}
	if !d.HV.HypPool.Snapshot().Equal(ref.HV.HypPool.Snapshot()) {
		add("hyp pool allocation state diverges")
	}
	for i := range d.HV.CPUs {
		if *d.HV.CPUs[i] != *ref.HV.CPUs[i] {
			add("cpu %d register file diverges", i)
		}
		if d.HV.PerCPUState(i) != ref.HV.PerCPUState(i) {
			add("cpu %d hypervisor per-cpu state diverges", i)
		}
	}
	for _, diff := range ghost.DiffStates(rec.SharedState(), refRec.SharedState(), max) {
		add("ghost: %s", diff)
	}
	return out
}

// checkConformance verifies the restored worker system against a
// freshly booted system with ops replayed onto it. A divergence is
// fatal: it stops the campaign and surfaces from Wait as an error.
func (e *Engine) checkConformance(w int, ws *worksys, ops []randtest.Op) {
	ref, refRec, _, err := e.newSystem(w)
	if err != nil {
		e.fatal(fmt.Errorf("conformance reference boot: %w", err))
		return
	}
	if len(ops) > 0 {
		randtest.Replay(ref, &randtest.Trace{Ops: ops})
	}
	if diffs := conformance(ws.d, ws.rec, ref, refRec, 8); len(diffs) > 0 {
		e.fatal(fmt.Errorf("snapshot conformance divergence (worker %d, %d-op prefix): %v", w, len(ops), diffs))
	}
}

// fatal records a campaign-machinery error and stops the campaign.
func (e *Engine) fatal(err error) {
	e.mu.Lock()
	if e.bootErr == nil {
		e.bootErr = err
	}
	e.mu.Unlock()
	e.stop.Store(true)
}

// wrapCoverage installs a fresh per-exec coverage tracker over the
// long-lived system's oracle, mirroring what a fresh boot gets.
func wrapCoverage(d *proxy.Driver, rec *ghost.Recorder) *coverage.Tracker {
	cov := coverage.Wrap(d.HV, rec)
	d.HV.SetInstrumentation(cov)
	return cov
}
