// Package campaign is the parallel coverage-guided campaign engine.
//
// It scales the paper's §5 model-guided random testing out across
// workers: each worker owns a private system instance (hypervisor,
// ghost oracle, coverage tracker) and executes short generator runs,
// folding every run's coverage into one shared aggregate. Runs whose
// coverage adds novelty seed a shared corpus; mutation biases future
// runs toward seeds that reached rare outcomes. When the oracle
// alarms, a delta-debugging shrinker minimizes the recorded operation
// trace to a near-1-minimal reproduction, carrying the flight-recorder
// dump of the failing CPU. A fault-sweep mode iterates the entire
// faults.All() matrix and asserts every planted bug is detected.
package campaign

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ghostspec/internal/arch"
	"ghostspec/internal/core/ghost"
	"ghostspec/internal/coverage"
	"ghostspec/internal/faults"
	"ghostspec/internal/hyp"
	"ghostspec/internal/proxy"
	"ghostspec/internal/randtest"
	"ghostspec/internal/sched"
	"ghostspec/internal/telemetry/trace"
)

// Execution phase spans. Each worker is one tracer lane, so one exec's
// phases nest under its exec span and never interleave with another
// worker's. The phase set is the disjoint cover benchreport -profile
// attributes exec wall time against: boot, parent replay, generation,
// coverage accounting, shrinking.
var (
	spanExec       = trace.NewName("exec")
	spanExecBoot   = trace.NewName("exec.boot")
	spanExecReplay = trace.NewName("exec.replay")
	spanExecRun    = trace.NewName("exec.run")
	spanExecCorpus = trace.NewName("exec.corpus")
	spanExecShrink = trace.NewName("exec.shrink")
)

// bigMemoryLayout is the large-physical-map configuration boot-layout
// bugs need (same shape bugdemo uses): enough RAM that the linear map
// reaches the IO window.
var bigMemoryLayout = arch.MemLayout{RAMStart: 1 << 30, RAMSize: 4 << 30, MMIOSize: 16 << 20}

// Config parameterises one campaign.
type Config struct {
	// Workers is the shard count; each worker boots private systems.
	// Default GOMAXPROCS.
	Workers int
	// StepsPerRun is the generator-step length of one execution
	// (default 400). Short runs keep shrinking cheap and reboot often
	// enough that findings stay independent.
	StepsPerRun int
	// Seed fixes the whole campaign: worker w draws every run seed
	// from randtest.WorkerSeed(Seed, w), so a single-worker campaign
	// is fully deterministic. Default 1.
	Seed int64
	// Unguided selects the uniform-random ablation generator; the
	// zero value is the model-guided default.
	Unguided bool
	// Bugs are injected into every booted system.
	Bugs []faults.Bug
	// BigMemory boots the large-physical-map layout (boot-layout bug
	// class); otherwise the default layout.
	BigMemory bool
	// NoSnapshot boots a fresh system for every execution instead of
	// rewinding a long-lived one — the before leg of the snapshot
	// benchmark.
	NoSnapshot bool
	// NrCPUs is the virtual-CPU count of every booted system (default
	// 4, mirroring hyp.Config). It is also the vCPU count of the
	// deterministic scheduler when SchedFuzz is on, and is reported in
	// bench output — the real value, not a hard-coded 1.
	NrCPUs int
	// SchedFuzz re-executes every clean run's trace a second time
	// split across NrCPUs vCPU streams under a seeded deterministic
	// schedule (internal/sched), turning the serial campaign into a
	// concurrency campaign: oracle alarms that only fire under some
	// interleaving become findings carrying the (trace, schedule) pair
	// that reproduces them.
	SchedFuzz bool
	// ConformanceEvery cross-checks every Nth restored execution per
	// worker against a freshly-booted-and-replayed reference system
	// (default 256; negative disables). Tests set 1 for exhaustive
	// checking. A divergence aborts the campaign with an error.
	ConformanceEvery int
	// Duration bounds wall time; zero means no deadline.
	Duration time.Duration
	// MaxExecs bounds total executions; zero means unlimited.
	MaxExecs int64
	// MaxFindings stops the campaign after this many findings; zero
	// means keep going.
	MaxFindings int
	// ShrinkReplays budgets replays per finding's minimization
	// (default 400).
	ShrinkReplays int
	// CorpusCap bounds the seed corpus (default 128).
	CorpusCap int
	// Logf, when set, receives progress lines (findings, stop cause).
	Logf func(format string, args ...any)
	// OnFinding, when set, is called once per recorded finding, after
	// minimization, from the finding worker's goroutine. A sync
	// directory worker (internal/syncdir) uses it to create the
	// finding's file; keep it cheap (no blocking on peers) — it runs
	// on the exec path.
	OnFinding func(Finding)
	// OnCorpus, when set, is called when a run's trace enters the
	// corpus through local novelty (not for entries injected with
	// InjectSeed, so an imported sync-directory entry is never written
	// back). Same cheapness contract as OnFinding.
	OnCorpus func(tr *randtest.Trace, score float64)
	// Tracer, when set, receives execution spans: worker w records on
	// lane w, so the tracer must have at least Workers lanes. Each
	// worker's system (hypervisor, locks, TLB, oracle) is wired to the
	// same tracer/lane, putting an exec's full cost breakdown on one
	// timeline.
	Tracer *trace.Tracer
}

func (c *Config) fill() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.StepsPerRun <= 0 {
		c.StepsPerRun = 400
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.ShrinkReplays <= 0 {
		c.ShrinkReplays = 400
	}
	if c.CorpusCap <= 0 {
		c.CorpusCap = 128
	}
	if c.ConformanceEvery == 0 {
		c.ConformanceEvery = 256
	}
	if c.NrCPUs <= 0 {
		c.NrCPUs = 4
	}
}

// Finding is one oracle failure the campaign turned into a
// minimized reproduction.
type Finding struct {
	// Worker and Exec locate the discovery (global execution index).
	Worker int
	Exec   int64
	// Seed is the generator seed of the failing run; FromCorpus marks
	// runs that extended a corpus parent (whose ops are part of Trace).
	Seed       int64
	FromCorpus bool
	// Failures are the oracle alarms of the original run, each
	// carrying the flight-recorder dump of its failing CPU.
	Failures []ghost.Failure
	// Trace is the full recorded reproduction; Min is the shrunk
	// near-1-minimal version and MinFailures the alarms it raises.
	Trace       *randtest.Trace
	Min         *randtest.Trace
	MinFailures []ghost.Failure
	// ShrinkReplays counts replays the minimization spent;
	// Reproducible reports whether the initial re-execution of Trace
	// failed again (shrinking only proceeds when it does).
	ShrinkReplays int
	Reproducible  bool
	// Sched is non-nil for schedule-fuzzing findings: the recorded
	// schedule of the failing scheduled replay, derived from SchedSeed.
	// MinSched is the minimized schedule prefix that still reproduces
	// together with Min (the rest of the replay drains
	// deterministically); SchedErr carries a scheduler-level error
	// (captured stream panic, deadlock abandonment) when the finding
	// is not an oracle alarm.
	Sched     *sched.Schedule
	MinSched  *sched.Schedule
	SchedSeed int64
	SchedErr  string
}

// Report summarises a campaign.
type Report struct {
	Execs       int64
	Elapsed     time.Duration
	ExecsPerSec float64
	NovelRuns   int64
	CorpusSize  int
	Findings    []Finding
	Coverage    coverage.Report
	// Snapshot totals: restores performed, corpus-parent forks that
	// skipped replay, frames rewritten across all restores, and full
	// replays taken because a parent carried no snapshot.
	SnapshotRestores    int64
	SnapshotParentHits  int64
	SnapshotDirtyFrames int64
	SnapshotFallbacks   int64
}

// workerState is one worker's liveness record, read lock-free by
// Status while the worker runs.
type workerState struct {
	execs      atomic.Int64
	lastActive atomic.Int64 // unix nanos of the last exec start

	// Snapshot accounting: restores performed, corpus-parent forks
	// that skipped replay, frames rewritten by restores, and full
	// replays taken because a parent carried no snapshot.
	snapRestores    atomic.Int64
	snapParentHits  atomic.Int64
	snapDirtyFrames atomic.Int64
	snapFallbacks   atomic.Int64
}

// Engine is a running campaign. Build one with Start, observe it with
// Status while it runs, and collect the final Report with Wait; Run
// bundles Start+Wait for callers with no introspection needs.
type Engine struct {
	cfg      Config
	tracer   *trace.Tracer
	agg      *coverage.Aggregator
	corpus   *corpus
	deadline time.Time
	start    time.Time

	execs atomic.Int64
	novel atomic.Int64
	stop  atomic.Bool

	workers []workerState
	wg      sync.WaitGroup

	mu       sync.Mutex
	findings []Finding
	bootErr  error
	// baseImg is the campaign-wide shared base memory image (see
	// snapshot.go); probe is the boot-check system recycled as worker
	// 0's long-lived system when snapshots are enabled.
	baseImg *arch.MemImage
	probe   *worksys
}

// WorkerStatus is one worker's live health snapshot.
type WorkerStatus struct {
	Worker     int       `json:"worker"`
	Execs      int64     `json:"execs"`
	LastActive time.Time `json:"last_active"`
	// Healthy reports recent progress: the worker started an exec
	// within the health window (or the campaign just started).
	Healthy bool `json:"healthy"`
	// Snapshot hit/dirty accounting for this worker: restores
	// performed, corpus-parent forks that skipped the replay phase,
	// frames rewritten, and full replays because a parent carried no
	// snapshot.
	SnapshotRestores    int64 `json:"snapshot_restores"`
	SnapshotParentHits  int64 `json:"snapshot_parent_hits"`
	SnapshotDirtyFrames int64 `json:"snapshot_dirty_frames"`
	SnapshotFallbacks   int64 `json:"snapshot_fallback_full"`
}

// Status is a live campaign snapshot, safe to take from any goroutine
// while the campaign runs — the /campaign endpoint's payload.
type Status struct {
	Execs       int64           `json:"execs"`
	Elapsed     time.Duration   `json:"elapsed_ns"`
	ExecsPerSec float64         `json:"execs_per_sec"`
	NovelRuns   int64           `json:"novel_runs"`
	CorpusSize  int             `json:"corpus_size"`
	Findings    int             `json:"findings"`
	Coverage    coverage.Report `json:"coverage"`
	Workers     []WorkerStatus  `json:"workers"`
	// Campaign-wide snapshot totals (sums of the per-worker stats).
	SnapshotRestores    int64 `json:"snapshot_restores"`
	SnapshotDirtyFrames int64 `json:"snapshot_dirty_frames"`
	SnapshotFallbacks   int64 `json:"snapshot_fallback_full"`
}

// healthWindow is how long a worker may go without starting an exec
// before Status flags it unhealthy. Generously above any legitimate
// exec time (boot + steps + shrinking stays well under a second); a
// worker quiet for this long is wedged or starved.
const healthWindow = 5 * time.Second

// Run executes a campaign to completion (deadline, exec budget, or
// finding budget) and reports.
func Run(cfg Config) (*Report, error) {
	e, err := Start(cfg)
	if err != nil {
		return nil, err
	}
	return e.Wait()
}

// Start validates the configuration, boots a probe system, and launches
// the workers. The campaign runs until a stop condition trips; Wait
// collects the report.
func Start(cfg Config) (*Engine, error) {
	cfg.fill()
	e := &Engine{
		cfg:     cfg,
		tracer:  cfg.Tracer,
		agg:     coverage.NewAggregator(),
		corpus:  newCorpus(cfg.CorpusCap),
		workers: make([]workerState, cfg.Workers),
	}

	// Fail fast on unbootable configurations rather than from inside
	// every worker. With snapshots enabled the boot-check system is
	// not thrown away: it becomes worker 0's long-lived base system,
	// and its memory image is the one every other worker adopts.
	if cfg.NoSnapshot {
		if _, _, _, err := e.newSystem(0); err != nil {
			return nil, fmt.Errorf("campaign boot check: %w", err)
		}
	} else {
		ws, err := e.newWorksys(0)
		if err != nil {
			return nil, fmt.Errorf("campaign boot check: %w", err)
		}
		e.probe = ws
	}
	if cfg.Duration <= 0 && cfg.MaxExecs <= 0 && cfg.MaxFindings <= 0 {
		return nil, fmt.Errorf("campaign needs a stop condition (Duration, MaxExecs, or MaxFindings)")
	}
	if cfg.Duration > 0 {
		e.deadline = time.Now().Add(cfg.Duration)
	}

	e.start = time.Now()

	for w := 0; w < cfg.Workers; w++ {
		e.workers[w].lastActive.Store(e.start.UnixNano())
		e.wg.Add(1)
		go func(w int) {
			defer e.wg.Done()
			e.worker(w)
		}(w)
	}
	return e, nil
}

// Wait blocks until the campaign stops and assembles the final report.
func (e *Engine) Wait() (*Report, error) {
	e.wg.Wait()

	if e.bootErr != nil {
		return nil, e.bootErr
	}
	elapsed := time.Since(e.start)
	e.mu.Lock()
	findings := e.findings
	e.mu.Unlock()
	rep := &Report{
		Execs:      e.execs.Load(),
		Elapsed:    elapsed,
		NovelRuns:  e.novel.Load(),
		CorpusSize: e.corpus.size(),
		Findings:   findings,
		Coverage:   e.agg.Report(),
	}
	for w := range e.workers {
		rep.SnapshotRestores += e.workers[w].snapRestores.Load()
		rep.SnapshotParentHits += e.workers[w].snapParentHits.Load()
		rep.SnapshotDirtyFrames += e.workers[w].snapDirtyFrames.Load()
		rep.SnapshotFallbacks += e.workers[w].snapFallbacks.Load()
	}
	if s := elapsed.Seconds(); s > 0 {
		rep.ExecsPerSec = float64(rep.Execs) / s
	}
	return rep, nil
}

// Stop requests an early campaign stop: workers finish their current
// execution and exit their loops. Wait still collects the report.
func (e *Engine) Stop() {
	e.stop.Store(true)
}

// CoverageDelta exports the campaign's merged coverage aggregate in
// serializable form — what a sync-directory worker writes to its
// coverage.json.
func (e *Engine) CoverageDelta() coverage.Delta {
	return e.agg.Export()
}

// InjectSeed adds a foreign trace (a corpus entry read from a sync
// directory: a peer's, or an earlier session's) to the corpus. It
// carries no end-state snapshot, so the first local extension replays
// it and captures one; OnCorpus deliberately does not fire for
// injected entries.
func (e *Engine) InjectSeed(tr *randtest.Trace, score float64) {
	if tr.Len() == 0 || score <= 0 {
		return
	}
	e.corpus.add(tr, score, nil)
}

// recordFinding appends a finding (both the serial and the
// schedule-fuzz paths land here), honours MaxFindings, and notifies
// the OnFinding hook outside the engine lock.
func (e *Engine) recordFinding(f Finding) {
	e.mu.Lock()
	e.findings = append(e.findings, f)
	hitCap := e.cfg.MaxFindings > 0 && len(e.findings) >= e.cfg.MaxFindings
	e.mu.Unlock()
	if hitCap {
		e.stop.Store(true)
	}
	if e.cfg.OnFinding != nil {
		e.cfg.OnFinding(f)
	}
}

// Status snapshots the running campaign. Counters are atomics and the
// coverage aggregate locks internally, so the snapshot is cheap enough
// to serve on every poll.
func (e *Engine) Status() Status {
	now := time.Now()
	elapsed := now.Sub(e.start)
	s := Status{
		Execs:      e.execs.Load(),
		Elapsed:    elapsed,
		NovelRuns:  e.novel.Load(),
		CorpusSize: e.corpus.size(),
		Coverage:   e.agg.Report(),
	}
	if sec := elapsed.Seconds(); sec > 0 {
		s.ExecsPerSec = float64(s.Execs) / sec
	}
	e.mu.Lock()
	s.Findings = len(e.findings)
	e.mu.Unlock()
	for w := range e.workers {
		last := time.Unix(0, e.workers[w].lastActive.Load())
		ws := WorkerStatus{
			Worker:              w,
			Execs:               e.workers[w].execs.Load(),
			LastActive:          last,
			Healthy:             now.Sub(last) < healthWindow,
			SnapshotRestores:    e.workers[w].snapRestores.Load(),
			SnapshotParentHits:  e.workers[w].snapParentHits.Load(),
			SnapshotDirtyFrames: e.workers[w].snapDirtyFrames.Load(),
			SnapshotFallbacks:   e.workers[w].snapFallbacks.Load(),
		}
		s.Workers = append(s.Workers, ws)
		s.SnapshotRestores += ws.SnapshotRestores
		s.SnapshotDirtyFrames += ws.SnapshotDirtyFrames
		s.SnapshotFallbacks += ws.SnapshotFallbacks
	}
	return s
}

// newSystem boots one private system instance with the campaign's
// instrumentation stack: oracle attached first (it checks the boot
// layout), coverage wrapped over it. The system records spans on the
// booting worker's lane.
func (e *Engine) newSystem(w int) (*proxy.Driver, *ghost.Recorder, *coverage.Tracker, error) {
	hcfg := hyp.Config{
		Inj:    faults.NewInjector(e.cfg.Bugs...),
		NrCPUs: e.cfg.NrCPUs,
		Tracer: e.tracer, TraceLane: w,
	}
	if e.cfg.BigMemory {
		hcfg.Layout = bigMemoryLayout
	}
	hv, err := hyp.New(hcfg)
	if err != nil {
		return nil, nil, nil, err
	}
	rec := ghost.Attach(hv)
	cov := coverage.Wrap(hv, rec)
	hv.SetInstrumentation(cov)
	return proxy.New(hv), rec, cov, nil
}

// bootSystem is newSystem under the exec.boot span — the phase that
// dominates private-system campaigns.
func (e *Engine) bootSystem(w int) (*proxy.Driver, *ghost.Recorder, *coverage.Tracker, error) {
	sp := e.tracer.Begin(w, spanExecBoot)
	defer sp.End()
	return e.newSystem(w)
}

// factory adapts system acquisition for the shrinker (which has no
// use for the coverage tracker). Shrink replays run on the finding
// worker's lane; on a snapshot worker each "boot" is a rewind of the
// worker's own system to base — the shrinker's replays-per-finding
// ride the same restore path as everything else.
func (e *Engine) factory(w int, ws *worksys) Factory {
	if ws != nil {
		return func() (*proxy.Driver, *ghost.Recorder, error) {
			e.restoreTo(w, ws, nil)
			return ws.d, ws.rec, nil
		}
	}
	return func() (*proxy.Driver, *ghost.Recorder, error) {
		d, rec, _, err := e.newSystem(w)
		return d, rec, err
	}
}

func (e *Engine) stopped() bool {
	if e.stop.Load() {
		return true
	}
	if !e.deadline.IsZero() && !time.Now().Before(e.deadline) {
		return true
	}
	if e.cfg.MaxExecs > 0 && e.execs.Load() >= e.cfg.MaxExecs {
		return true
	}
	return false
}

func (e *Engine) logf(format string, args ...any) {
	if e.cfg.Logf != nil {
		e.cfg.Logf(format, args...)
	}
}

// input is one execution's recipe: a generator seed, plus optionally
// a corpus parent whose trace the execution continues from — via the
// parent's end-state snapshot when it carries one, or by replaying
// the parent's ops before generation starts (the fallback, and the
// only path when snapshots are disabled).
type input struct {
	seed   int64
	steps  int
	parent *randtest.Trace
	snap   *parentSnap
}

// worker is one shard: a private rng derived from (campaign seed,
// worker index) drives its input choices, so any worker's whole
// sequence re-derives from those two numbers alone. With snapshots
// enabled the worker owns one long-lived system rewound per exec;
// worker 0 inherits the Start-time boot-check system.
func (e *Engine) worker(w int) {
	var ws *worksys
	if !e.cfg.NoSnapshot {
		if w == 0 && e.probe != nil {
			ws = e.probe
		} else {
			var err error
			if ws, err = e.newWorksys(w); err != nil {
				e.fatal(err)
				return
			}
		}
	}
	rng := rand.New(rand.NewSource(randtest.WorkerSeed(e.cfg.Seed, w)))
	for !e.stopped() {
		in := input{seed: rng.Int63(), steps: e.cfg.StepsPerRun}
		// Half the runs extend a corpus seed once the corpus has
		// content; the pick is score-weighted toward rare coverage.
		if rng.Intn(2) == 0 {
			if parent, snap, ok := e.corpus.pick(rng); ok {
				in.parent, in.snap = parent, snap
			}
		}
		e.runOne(w, in, ws)
	}
}

// runOne executes one input, under the exec span with one child span
// per phase — the attribution benchreport -profile measures. With a
// worksys the system is rewound (forking straight into the parent's
// end state when its snapshot is available); without one it is a
// fresh boot plus a full parent replay.
func (e *Engine) runOne(w int, in input, ws *worksys) {
	sp := e.tracer.Begin(w, spanExec)
	defer sp.End()
	e.workers[w].execs.Add(1)
	e.workers[w].lastActive.Store(time.Now().UnixNano())

	var (
		d   *proxy.Driver
		rec *ghost.Recorder
		cov *coverage.Tracker
	)
	forked := false
	if ws != nil {
		d, rec = ws.d, ws.rec
		e.restoreTo(w, ws, in.snap)
		forked = in.snap != nil
		cov = wrapCoverage(d, rec)
	} else {
		var err error
		if d, rec, cov, err = e.bootSystem(w); err != nil {
			e.fatal(err)
			return
		}
	}
	exec := e.execs.Add(1)

	// Presize for the parent plus this run's steps: a guided step
	// records ~1.25 ops (498.5 per 400 steps over 20 seeds), and
	// growing the trace from empty by append cost ~9% of campaign
	// bytes. absorbCoverage clips what the corpus keeps.
	tr := &randtest.Trace{Ops: make([]randtest.Op, 0, in.parent.Len()+in.steps*5/4)}
	if in.parent != nil {
		tr.Ops = append(tr.Ops, in.parent.Ops...)
		if !forked {
			// No end-state snapshot to fork from: replay the parent.
			e.replayParent(w, d, in.parent)
			if ws != nil {
				e.workers[w].snapFallbacks.Add(1)
				// The state just rebuilt is exactly the parent's end
				// state — capture it once so later forks of this entry
				// (injected seeds arrive snapshot-less) restore
				// instead of replaying.
				e.corpus.backfill(in.parent, e.captureParent(w, ws))
			}
		}
	}

	// Probabilistic ground-truth check of the fork machinery: diff the
	// restored state against a fresh boot with the same prefix
	// replayed. The prefix covers the snapshot-less fallback too — the
	// parent was just replayed above, so the reference must replay it
	// as well.
	if ws != nil && e.cfg.ConformanceEvery > 0 &&
		e.workers[w].execs.Load()%int64(e.cfg.ConformanceEvery) == 0 {
		var prefix []randtest.Op
		if in.parent != nil {
			prefix = in.parent.Ops
		}
		e.checkConformance(w, ws, prefix)
	}

	// Boot-layout defects alarm the instant the oracle attaches; the
	// finding then needs no hypercall traffic at all.
	if len(rec.Failures()) == 0 {
		tr = e.runSteps(w, d, rec, in, tr)
	}

	e.absorbCoverage(w, cov, tr, ws)

	failures := rec.Failures()
	if len(failures) == 0 {
		// Clean serial run: optionally re-execute the same trace split
		// across vCPU streams under a seeded deterministic schedule.
		// This happens after coverage absorption so corpus parent
		// snapshots always hold the *serial* end state the conformance
		// differ and snapshot forks expect.
		if e.cfg.SchedFuzz && tr.Len() > 0 {
			e.schedFuzzOne(w, in, tr, ws, exec)
		}
		return
	}
	min, minFailures, replays, ok := e.shrinkOne(w, tr, ws)
	f := Finding{
		Worker: w, Exec: exec,
		Seed: in.seed, FromCorpus: in.parent != nil,
		Failures: failures,
		Trace:    tr, Min: min, MinFailures: minFailures,
		ShrinkReplays: replays, Reproducible: ok,
	}
	e.logf("finding: worker=%d exec=%d seed=%d alarms=%d trace=%d ops -> min=%d ops (%d replays)",
		w, exec, in.seed, len(failures), tr.Len(), min.Len(), replays)
	e.recordFinding(f)
}

// replayParent re-executes the corpus parent's trace (the extend
// mutation's warm-up) under the exec.replay span.
func (e *Engine) replayParent(w int, d *proxy.Driver, parent *randtest.Trace) {
	sp := e.tracer.Begin(w, spanExecReplay)
	defer sp.End()
	randtest.Replay(d, parent)
}

// runSteps runs the generator under the exec.run span and returns the
// recorded trace.
func (e *Engine) runSteps(w int, d *proxy.Driver, rec *ghost.Recorder, in input, tr *randtest.Trace) *randtest.Trace {
	sp := e.tracer.Begin(w, spanExecRun)
	defer sp.End()
	t := randtest.NewFromSource(d, rec, rand.NewSource(in.seed), !e.cfg.Unguided)
	t.Trace = tr
	t.Run(in.steps)
	return t.Trace
}

// absorbCoverage folds the run's coverage into the aggregate and seeds
// the corpus on novelty, under the exec.corpus span. On a snapshot
// worker the new corpus entry also gets a snapshot of the system's
// current state — exactly the trace's end state, captured for free
// since the worker is still sitting in it — so future extenders fork
// instead of replaying.
func (e *Engine) absorbCoverage(w int, cov *coverage.Tracker, tr *randtest.Trace, ws *worksys) {
	sp := e.tracer.Begin(w, spanExecCorpus)
	defer sp.End()
	if novelty := e.agg.Absorb(cov); novelty > 0 {
		e.novel.Add(1)
		var snap *parentSnap
		if ws != nil {
			snap = e.captureParent(w, ws)
		}
		score := float64(novelty) + e.agg.Rarity(cov)
		tr.Ops = slices.Clone(tr.Ops) // drop runOne's slack
		e.corpus.add(tr, score, snap)
		if e.cfg.OnCorpus != nil && tr.Len() > 0 {
			e.cfg.OnCorpus(tr, score)
		}
	}
}

// shrinkOne minimizes a failing trace under the exec.shrink span.
func (e *Engine) shrinkOne(w int, tr *randtest.Trace, ws *worksys) (*randtest.Trace, []ghost.Failure, int, bool) {
	sp := e.tracer.Begin(w, spanExecShrink)
	defer sp.End()
	return Shrink(e.factory(w, ws), tr, e.cfg.ShrinkReplays)
}
