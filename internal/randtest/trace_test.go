package randtest

import (
	"testing"

	"ghostspec/internal/core/ghost"
	"ghostspec/internal/hyp"
	"ghostspec/internal/proxy"
)

// recordedRun boots a fresh system, runs a recording tester for steps
// generator steps under the given seed, and returns the trace plus the
// oracle's alarms.
func recordedRun(t *testing.T, seed int64, steps int, guided bool) (*Trace, []ghost.Failure) {
	t.Helper()
	hv, err := hyp.New(hyp.Config{})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	rec := ghost.Attach(hv)
	tr := New(proxy.New(hv), rec, seed, guided)
	tr.Trace = &Trace{}
	tr.Run(steps)
	return tr.Trace, rec.Failures()
}

// TestTraceDeterministic is the shrinker's foundation: the same seed
// must yield a byte-identical op trace on every run, with no shared or
// global rand state leaking in. (The shrinker replays recorded traces;
// if recording were racy or seed-dependent-only-mostly, minimized
// repros would not reproduce.)
func TestTraceDeterministic(t *testing.T) {
	for _, guided := range []bool{true, false} {
		a, _ := recordedRun(t, 42, 2000, guided)
		b, _ := recordedRun(t, 42, 2000, guided)
		if a.Len() == 0 {
			t.Fatalf("guided=%v: empty trace from 2000 steps", guided)
		}
		if a.String() != b.String() {
			t.Errorf("guided=%v: same seed produced different traces (%d vs %d ops)",
				guided, a.Len(), b.Len())
		}
	}
}

// TestTraceSeedSensitivity sanity-checks that the trace actually
// depends on the seed (a constant trace would pass determinism).
func TestTraceSeedSensitivity(t *testing.T) {
	a, _ := recordedRun(t, 1, 500, true)
	b, _ := recordedRun(t, 2, 500, true)
	if a.String() == b.String() {
		t.Error("different seeds produced identical traces")
	}
}

// TestReplayMatchesRecording replays a full recorded trace on a fresh
// system and checks the replay drives the same hypercall traffic: same
// trap count observed by the oracle, and — like the recording run on a
// correct build — zero alarms.
func TestReplayMatchesRecording(t *testing.T) {
	trace, failures := recordedRun(t, 7, 1500, true)
	if len(failures) != 0 {
		t.Fatalf("recording run alarmed on a correct build: %v", failures[0])
	}

	hv, err := hyp.New(hyp.Config{})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	rec := ghost.Attach(hv)
	Replay(proxy.New(hv), trace)
	if fs := rec.Failures(); len(fs) != 0 {
		t.Fatalf("replay of a clean trace alarmed: %v", fs[0])
	}

	// Replaying again on another fresh system must also be stable.
	hv2, err := hyp.New(hyp.Config{})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	rec2 := ghost.Attach(hv2)
	Replay(proxy.New(hv2), trace)
	if got, want := rec2.Stats().Traps, rec.Stats().Traps; got != want {
		t.Errorf("replay trap counts diverge: %d vs %d", got, want)
	}
}

// TestReplaySkipsOrphanFree pins that a shrunk trace keeping a free
// whose alloc was dropped replays without a double-free panic, and
// that a free of a replayed alloc still returns the frame.
func TestReplaySkipsOrphanFree(t *testing.T) {
	hv, err := hyp.New(hyp.Config{})
	if err != nil {
		t.Fatalf("boot: %v", err)
	}
	d := proxy.New(hv)
	start, _ := d.HostPool.Range()
	Replay(d, &Trace{Ops: []Op{
		{Kind: OpFree, PFN: start + 7}, // its alloc was shrunk away
		{Kind: OpAlloc, PFN: start + 3},
		{Kind: OpFree, PFN: start + 3},
		{Kind: OpFree, PFN: start + 3}, // the re-alloc between was shrunk away
	}})
	if n := d.HostPool.Allocated(); n != 0 {
		t.Errorf("%d host frames left allocated, want 0", n)
	}
}

// TestWorkerSeedDecorrelated checks the per-worker seed derivation
// yields distinct, positive seeds across workers and campaign seeds.
func TestWorkerSeedDecorrelated(t *testing.T) {
	seen := make(map[int64]bool)
	for campaign := int64(0); campaign < 8; campaign++ {
		for worker := 0; worker < 8; worker++ {
			s := WorkerSeed(campaign, worker)
			if s < 0 {
				t.Fatalf("WorkerSeed(%d,%d) = %d, want >= 0", campaign, worker, s)
			}
			if seen[s] {
				t.Fatalf("WorkerSeed(%d,%d) = %d collides", campaign, worker, s)
			}
			seen[s] = true
		}
	}
}
