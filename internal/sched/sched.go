package sched

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"ghostspec/internal/analysis/preempt"
	"ghostspec/internal/spinlock"
	"ghostspec/internal/telemetry"
	"ghostspec/internal/telemetry/trace"
)

// cellState is a vCPU goroutine's scheduling state. Transitions all
// happen under Scheduler.mu.
type cellState int

const (
	// stateRunning: the cell holds the run token.
	stateRunning cellState = iota
	// stateParked: the cell stopped at a preemption point and can be
	// granted the token.
	stateParked
	// stateBlocked: the cell failed a spinlock TryLock; it becomes
	// parked (grantable) only when the lock is released.
	stateBlocked
	// stateDone: the cell's stream function returned.
	stateDone
)

// vcell is one virtual CPU's scheduling cell.
type vcell struct {
	state cellState
	// point identifies where the cell is parked — the ID recorded in
	// the schedule step when the cell is granted.
	point uint64
	// grant carries the run token. Buffered so the decider (which runs
	// in the outgoing cell's goroutine) never blocks handing it over.
	grant chan struct{}
	// blocked is the spinlock the cell is waiting on while
	// stateBlocked.
	blocked *spinlock.Lock
}

// Scheduler runs N vCPU stream functions under deterministic
// cooperative scheduling. A Scheduler is single-use: construct with
// New, call Run exactly once.
type Scheduler struct {
	mu    sync.Mutex
	cells []vcell

	// started gates decisions until every cell reached its startup
	// park, so decision #0 sees the full grantable set.
	started bool

	// Policy state. Precedence: forced-choice exploration, then
	// replay, then seeded random, then lowest-id.
	rng       *rand.Rand
	replay    []Step
	replayPos int
	fellBack  bool
	exploring bool
	forced    []int
	choices   []int

	record      []Step
	preemptions uint64
	err         error
	abandoned   bool

	tracer *trace.Tracer
	lane   int

	wg sync.WaitGroup
}

// Option configures a Scheduler.
type Option func(*Scheduler)

// WithSeed installs the seeded-random scheduling policy: each decision
// picks uniformly among the grantable cells. The same seed over the
// same streams reproduces the same schedule.
func WithSeed(seed uint64) Option {
	return func(s *Scheduler) { s.rng = rand.New(rand.NewSource(int64(seed))) }
}

// WithReplay installs the replay policy: decisions follow the recorded
// schedule step by step. A step whose (vCPU, point) is not grantable
// records a divergence error and falls back to the deterministic
// lowest-id drain; a schedule that runs out of steps drains the same
// way without error (this is what schedule-prefix minimisation leans
// on).
func WithReplay(sch *Schedule) Option {
	return func(s *Scheduler) {
		if sch != nil {
			s.replay = sch.Steps
		} else {
			s.replay = []Step{}
		}
	}
}

// WithForcedChoices installs the exploration policy used by bounded
// exhaustive enumeration: decision i takes forced[i] (an index into
// the sorted grantable set), decisions past the end take index 0, and
// the arity of every decision is recorded (Choices) so the enumerator
// can drive depth-first over the choice tree.
func WithForcedChoices(forced []int) Option {
	return func(s *Scheduler) {
		s.exploring = true
		s.forced = forced
	}
}

// WithTracer attaches a span tracer: every preemption emits a
// sched.preempt span covering the parked interval on the given lane.
// Without one, parking reads no clock.
func WithTracer(t *trace.Tracer, lane int) Option {
	return func(s *Scheduler) { s.tracer, s.lane = t, lane }
}

// WithCapacity presizes the recorded schedule for about steps
// decisions, so a long run's record does not grow by repeated copying.
func WithCapacity(steps int) Option {
	return func(s *Scheduler) { s.record = make([]Step, 0, steps) }
}

// New builds a scheduler for n virtual CPUs.
func New(n int, opts ...Option) *Scheduler {
	if n < 1 {
		panic("sched: need at least one vCPU")
	}
	s := &Scheduler{cells: make([]vcell, n)}
	for i := range s.cells {
		s.cells[i].grant = make(chan struct{}, 1)
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// NCPUs returns the number of virtual CPUs.
func (s *Scheduler) NCPUs() int { return len(s.cells) }

// Run executes one stream function per vCPU under the scheduler and
// returns after all of them finish. dom is the preemption domain of
// the system the streams drive (hyp.Hypervisor.Preempt): Run binds it
// for its duration, so every point crossing on that system — and only
// on that system — is a scheduling opportunity for the running vCPU.
// A nil dom schedules at op boundaries only. The error reports replay
// validation failures, replay divergence, schedule deadlock
// (abandonment), or a panic captured from a stream (lock-rank
// inversions surface here).
func (s *Scheduler) Run(dom *preempt.Domain, fns ...func(vcpu int)) error {
	if len(fns) != len(s.cells) {
		return fmt.Errorf("sched: %d stream functions for %d vCPUs", len(fns), len(s.cells))
	}
	if s.replay != nil {
		if err := (&Schedule{Steps: s.replay}).Validate(len(s.cells)); err != nil {
			return err
		}
	}
	if dom != nil {
		dom.Bind(s)
		defer dom.Bind(nil)
	}

	var ready sync.WaitGroup
	ready.Add(len(fns))
	for i := range fns {
		s.wg.Add(1)
		go s.vcpuMain(i, fns[i], &ready)
	}
	ready.Wait()
	s.mu.Lock()
	s.started = true
	s.decideLocked()
	s.mu.Unlock()
	s.wg.Wait()

	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// vcpuMain is one vCPU goroutine: park at the startup boundary, then
// run the stream. Panics (most importantly spinlock rank inversions)
// are captured into the scheduler error — the goroutine's deferred
// unlocks have already run by then, so the remaining vCPUs can still
// drain.
func (s *Scheduler) vcpuMain(id int, fn func(int), ready *sync.WaitGroup) {
	defer s.wg.Done()
	defer func() {
		if r := recover(); r != nil {
			s.notePanic(id, r)
		}
		s.finish(id)
	}()

	c := &s.cells[id]
	s.mu.Lock()
	c.state = stateParked
	c.point = preempt.PointBoundary
	s.mu.Unlock()
	ready.Done()
	<-c.grant

	if fn != nil {
		fn(id)
	}
}

// Boundary parks the calling vCPU at the op-boundary pseudo-point and
// returns once the schedule grants it the token again. The return
// value is false when the scheduler abandoned the run (deadlock or
// replay exhaustion after divergence) — the stream should stop issuing
// operations, because one-token serialisation is no longer guaranteed.
func (s *Scheduler) Boundary(vcpu int) bool {
	s.park(vcpu, preempt.PointBoundary)
	s.mu.Lock()
	ok := !s.abandoned
	s.mu.Unlock()
	return ok
}

// Crossing implements preempt.Scheduler: a point crossing on the
// bound domain parks the running cell.
func (s *Scheduler) Crossing(p *preempt.Point) { s.park(-1, p.ID) }

// park stops a cell at the given point and waits for the token: cell
// id from Boundary, the running cell (id < 0) from a crossing.
func (s *Scheduler) park(id int, point uint64) {
	s.mu.Lock()
	if !s.started || s.abandoned {
		s.mu.Unlock()
		return
	}
	if id < 0 {
		id = s.runningLocked()
	}
	if id < 0 || s.cells[id].state != stateRunning {
		// Defensive: no cell holds the token (should not happen
		// under one-token).
		s.mu.Unlock()
		return
	}
	c := &s.cells[id]
	c.state = stateParked
	c.point = point
	s.preemptions++
	if !telemetry.Disabled() {
		telPreemptions.Inc()
	}
	start := s.now()
	s.decideLocked()
	s.mu.Unlock()

	<-c.grant
	s.emitParked(start)
}

// now reads the clock for a parked interval's span, and only when a
// tracer will receive it.
func (s *Scheduler) now() time.Time {
	if s.tracer == nil {
		return time.Time{}
	}
	return time.Now()
}

// emitParked emits the sched.preempt span of an interval that started
// at start (see now).
func (s *Scheduler) emitParked(start time.Time) {
	if s.tracer != nil {
		s.tracer.Emit(s.lane, spanPreempt, start, time.Since(start))
	}
}

// runningLocked returns the cell holding the token, or -1. Caller
// holds s.mu.
func (s *Scheduler) runningLocked() int {
	for i := range s.cells {
		if s.cells[i].state == stateRunning {
			return i
		}
	}
	return -1
}

// LockContended implements spinlock.Scheduler: the running cell failed
// a TryLock on a lock of the bound system. The cell blocks — not
// grantable — until LockReleased flips it back to parked and a
// decision grants it. Returns false when the cell should fall back to
// a plain blocking acquisition (scheduler not started, or abandoned).
func (s *Scheduler) LockContended(l *spinlock.Lock) bool {
	s.mu.Lock()
	if !s.started || s.abandoned {
		s.mu.Unlock()
		return false
	}
	id := s.runningLocked()
	if id < 0 {
		s.mu.Unlock()
		return false
	}
	c := &s.cells[id]
	c.state = stateBlocked
	c.point = preempt.PointLockWait
	c.blocked = l
	s.preemptions++
	if !telemetry.Disabled() {
		telPreemptions.Inc()
	}
	start := s.now()
	s.decideLocked()
	if s.abandoned {
		// The block we just declared completed a deadlock; undo it and
		// let the caller block on the mutex directly (the abandonment
		// grant storm is releasing the other cells).
		c.state = stateRunning
		c.blocked = nil
		s.mu.Unlock()
		return false
	}
	s.mu.Unlock()

	<-c.grant
	s.emitParked(start)
	s.mu.Lock()
	s.cells[id].blocked = nil
	s.mu.Unlock()
	return true
}

// LockReleased implements spinlock.Scheduler, called after every
// unlock of a lock of the bound system: cells blocked on that lock
// become grantable again. The releaser is normally still running (the
// unlock happened mid-stream), in which case no decision is due yet —
// decideLocked's running-cell check handles that.
func (s *Scheduler) LockReleased(l *spinlock.Lock) {
	s.mu.Lock()
	woke := false
	for i := range s.cells {
		if s.cells[i].state == stateBlocked && s.cells[i].blocked == l {
			s.cells[i].state = stateParked
			woke = true
		}
	}
	if woke && s.started {
		s.decideLocked()
	}
	s.mu.Unlock()
}

// finish marks the cell done and hands the token onward.
func (s *Scheduler) finish(id int) {
	s.mu.Lock()
	s.cells[id].state = stateDone
	if s.started {
		s.decideLocked()
	}
	s.mu.Unlock()
}

func (s *Scheduler) notePanic(id int, r interface{}) {
	s.mu.Lock()
	if s.err == nil {
		s.err = fmt.Errorf("sched: vCPU %d panicked: %v", id, r)
	}
	s.mu.Unlock()
}

// decideLocked makes a scheduling decision if one is due: when no cell
// is running, pick among the parked cells, record the step, and hand
// over the token. Caller holds s.mu.
func (s *Scheduler) decideLocked() {
	if s.abandoned {
		return
	}
	done := 0
	var buf [8]int // the grantable set, on the stack for up to 8 vCPUs
	grantable := buf[:0]
	for i := range s.cells {
		switch s.cells[i].state {
		case stateRunning:
			return // token already out
		case stateParked:
			grantable = append(grantable, i)
		case stateDone:
			done++
		}
	}
	if len(grantable) == 0 {
		if done == len(s.cells) {
			return // run complete
		}
		s.abandonLocked()
		return
	}
	id := grantable[s.pickLocked(grantable)]
	c := &s.cells[id]
	s.record = append(s.record, Step{VCPU: id, Point: c.point})
	c.state = stateRunning
	c.grant <- struct{}{}
}

// pickLocked chooses an index into the (ascending-id) grantable set
// according to the active policy.
func (s *Scheduler) pickLocked(grantable []int) int {
	if s.exploring {
		d := len(s.choices)
		s.choices = append(s.choices, len(grantable))
		if d < len(s.forced) {
			k := s.forced[d]
			if k >= len(grantable) {
				// Arity shrank relative to the run the enumerator
				// recorded — only possible if the streams are not
				// deterministic. Clamp rather than crash.
				k = len(grantable) - 1
			}
			return k
		}
		return 0
	}
	if s.replay != nil && !s.fellBack {
		if s.replayPos < len(s.replay) {
			st := s.replay[s.replayPos]
			s.replayPos++
			for i, g := range grantable {
				if g == st.VCPU && s.cells[g].point == st.Point {
					return i
				}
			}
			if s.err == nil {
				s.err = fmt.Errorf(
					"sched: replay diverged at step %d: schedule grants %s but that (vCPU, point) is not grantable",
					s.replayPos-1, st)
			}
			s.fellBack = true
			return 0
		}
		// Schedule exhausted: deterministic lowest-id drain, no error.
		return 0
	}
	if s.rng != nil {
		return s.rng.Intn(len(grantable))
	}
	return 0
}

// abandonLocked gives up on scheduling: no cell is grantable but not
// all are done, i.e. every live cell is blocked on a spinlock whose
// holder cannot run. Record the error, then release every waiter so
// the streams can drain under plain blocking. A genuinely cyclic lock
// acquisition would still hang here — but the rank validator panics at
// the guilty acquisition before it can block, and correctly
// disciplined hypervisor code cannot form a cycle, so abandonment in
// practice means a stream deadlocked against a non-scheduled
// goroutine. Run reports it loudly either way.
func (s *Scheduler) abandonLocked() {
	s.abandoned = true
	if s.err == nil {
		s.err = fmt.Errorf("sched: schedule deadlock after %d steps: no vCPU is grantable (%s)",
			len(s.record), s.describeLocked())
	}
	for i := range s.cells {
		c := &s.cells[i]
		if c.state == stateParked || c.state == stateBlocked {
			c.state = stateRunning
			select {
			case c.grant <- struct{}{}:
			default:
			}
		}
	}
}

// describeLocked renders the cell states for the abandonment error.
func (s *Scheduler) describeLocked() string {
	out := make([]string, len(s.cells))
	for i := range s.cells {
		c := &s.cells[i]
		switch c.state {
		case stateRunning:
			out[i] = fmt.Sprintf("v%d running", i)
		case stateParked:
			out[i] = fmt.Sprintf("v%d parked", i)
		case stateBlocked:
			name := "?"
			if c.blocked != nil {
				name = c.blocked.Component()
			}
			out[i] = fmt.Sprintf("v%d blocked on %q", i, name)
		case stateDone:
			out[i] = fmt.Sprintf("v%d done", i)
		}
	}
	return fmt.Sprintf("%v", out)
}

// Record returns the schedule of decisions actually taken, as a copy.
// Valid after Run returns.
func (s *Scheduler) Record() *Schedule {
	s.mu.Lock()
	defer s.mu.Unlock()
	return (&Schedule{Steps: s.record}).Clone()
}

// Choices returns, for each decision in order, how many cells were
// grantable — the per-node arity the exhaustive enumerator walks.
// Only populated under WithForcedChoices. Valid after Run returns.
func (s *Scheduler) Choices() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]int, len(s.choices))
	copy(out, s.choices)
	return out
}

// Preemptions returns the number of times a vCPU parked or blocked —
// a deterministic per-run count (unlike the process-global telemetry
// counters, which mix concurrent schedulers).
func (s *Scheduler) Preemptions() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.preemptions
}

// Abandoned reports whether the scheduler gave up one-token
// serialisation (see abandonLocked). Valid during and after Run.
func (s *Scheduler) Abandoned() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.abandoned
}
