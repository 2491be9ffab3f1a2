package randtest

import (
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"ghostspec/internal/arch"
	"ghostspec/internal/core/ghost"
	"ghostspec/internal/hyp"
	"ghostspec/internal/proxy"
	"ghostspec/internal/spinlock"
)

// TestConcurrentCampaignVerifyCache runs the concurrent campaign with
// the recorder's differential self-check on: at every hook the
// incremental (cached) abstraction is compared against a full
// recompute, so any invalidation bug under concurrent host map/unmap
// and guest churn surfaces as FailCacheDivergence. Afterwards it
// corrupts the host stage 2 while no lock is held and confirms the
// non-interference alarm still fires through the cached path. Run
// with -race.
func TestConcurrentCampaignVerifyCache(t *testing.T) {
	spinlock.EnableRankCheck()
	t.Cleanup(spinlock.DisableRankCheck)
	hv, err := hyp.New(hyp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := ghost.Attach(hv)
	rec.VerifyCache = true
	d := proxy.New(hv)

	stats := ConcurrentCampaign(d, rec, 42, 300)
	calls := 0
	for cpu, s := range stats {
		if s.HostCrashes != 0 || s.HypPanics != 0 {
			t.Errorf("cpu %d: %d crashes, %d panics", cpu, s.HostCrashes, s.HypPanics)
		}
		calls += s.Calls
	}
	if calls < 300 {
		t.Errorf("only %d calls across all CPUs", calls)
	}
	for _, f := range rec.Failures() {
		t.Errorf("alarm with VerifyCache on: %v", f)
	}
	st := rec.Stats()
	if st.Passed != st.Checks {
		t.Errorf("checks %d, passed %d", st.Checks, st.Passed)
	}
	if st.Cache.Hits == 0 || st.Cache.PartialWalks == 0 {
		t.Errorf("campaign exercised no cache reuse: %+v", st.Cache)
	}
	if t.Failed() {
		return
	}

	// Plant an annotation at an unused host stage 2 root slot while no
	// component lock is held. The next hypercall's lock-acquire hook
	// must flag the §4.4 violation — the cache must not mask it.
	hv.Mem.WritePTE(hv.HostPGTRoot(), 5, arch.MakeAnnotation(3))
	if _, err := d.HVC(0, hyp.HCHostShareHyp, uint64(arch.PhysToPFN(hv.HostMemStart()))); err != nil {
		t.Fatal(err)
	}
	seen := false
	for _, f := range rec.Failures() {
		if f.Kind == ghost.FailCacheDivergence {
			t.Errorf("cache diverged on corruption instead of non-interference: %v", f)
		}
		seen = seen || f.Kind == ghost.FailNonInterference
	}
	if !seen {
		t.Error("unlocked corruption raised no non-interference alarm")
	}

	vmTableCorruption(t, hv, rec, d)
}

// vmTableCorruption is the VM-table counterpart of the host corruption
// step above: with no lock held it changes, in turn, a vCPU's saved
// registers, its memcache, the VM's donated list and the reclaim set.
// The next vms-lock acquisition must flag each change through the
// incremental VM-table abstraction, which reuses a recorded entry
// only when every field reads back unchanged.
func vmTableCorruption(t *testing.T, hv *hyp.Hypervisor, rec *ghost.Recorder, d *proxy.Driver) {
	t.Helper()
	h, _, err := d.InitVM(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.InitVCPU(0, h, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Topup(0, h, 0, 2); err != nil {
		t.Fatal(err)
	}
	rec.ResetFailures()
	vm := hv.VMSnapshot(int(h - hyp.HandleOffset))
	spare, err := d.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	donated := unexportedField(vm, "donated")
	for _, step := range []struct {
		what    string
		corrupt func()
	}{
		{"vcpu registers", func() { vm.VCPUs[0].Regs[7] ^= 1 }},
		{"memcache", func() { vm.VCPUs[0].MC.Push(spare) }},
		{"donated list", func() {
			donated.Set(reflect.Append(donated, reflect.ValueOf(spare)))
		}},
		{"reclaim set", func() {
			reclaim := unexportedField(hv, "reclaimable")
			reclaim.Set(reflect.Append(reclaim, reflect.ValueOf(spare)))
		}},
	} {
		step.corrupt()
		// init_vcpu of an initialized vCPU: -EEXIST, but it takes the
		// vms lock.
		if _, err := d.HVC(0, hyp.HCInitVCPU, uint64(h), 0); err != nil {
			t.Fatal(err)
		}
		seen := false
		for _, f := range rec.Failures() {
			if f.Kind == ghost.FailCacheDivergence {
				t.Errorf("%s: cache diverged instead of non-interference: %v", step.what, f)
			}
			seen = seen || f.Kind == ghost.FailNonInterference && strings.HasPrefix(f.Detail, "vm table changed")
		}
		if !seen {
			t.Errorf("%s: unlocked change raised no vm-table non-interference alarm", step.what)
		}
		rec.ResetFailures()
	}
}

// unexportedField makes the named unexported field of *ptr writable:
// the test's stand-in for hypervisor code writing its own state
// without the lock.
func unexportedField(ptr any, name string) reflect.Value {
	f := reflect.ValueOf(ptr).Elem().FieldByName(name)
	return reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem()
}

// TestVerifyCacheAcrossRestores replays several generated traces on
// one system, each from its restored boot base, with the differential
// self-check on. Every restore rewrites the frames the previous trace
// dirtied and bumps their generations; the abstraction caches absorb
// that through their descriptor diffs and must agree with the full
// recompute at every hook. Run with -race.
func TestVerifyCacheAcrossRestores(t *testing.T) {
	var traces []*Trace
	for seed := int64(1); seed <= 5; seed++ {
		hv, err := hyp.New(hyp.Config{})
		if err != nil {
			t.Fatal(err)
		}
		gen := New(proxy.New(hv), nil, seed, true)
		gen.Trace = &Trace{}
		gen.Run(150)
		traces = append(traces, gen.Trace)
	}

	hv, err := hyp.New(hyp.Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := ghost.Attach(hv)
	rec.VerifyCache = true
	d := proxy.New(hv)
	base, _ := hv.CaptureBase(nil)
	hostBoot := d.HostPool.Snapshot()
	ghostBoot := rec.Checkpoint()

	dirty := 0
	for round := 0; round < 2; round++ {
		for i, tr := range traces {
			dirty += base.RestoreBase()
			d.HostPool.Restore(hostBoot)
			rec.RestoreCheckpoint(ghostBoot)
			Replay(d, tr)
			for _, f := range rec.Failures() {
				t.Fatalf("round %d trace %d: alarm with VerifyCache on: %v", round, i, f)
			}
		}
	}
	if dirty == 0 {
		t.Error("restores rewrote no frames")
	}
	st := rec.Stats()
	if st.Checks == 0 || st.Passed != st.Checks {
		t.Errorf("checks %d, passed %d", st.Checks, st.Passed)
	}
	if st.Cache.PartialWalks == 0 {
		t.Errorf("no partial walks across restores: %+v", st.Cache)
	}
}
