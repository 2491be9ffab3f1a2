package ghostspec

// The benchmark harness regenerating the paper's evaluation numbers
// (§5-6). One benchmark (or ghost-on/ghost-off pair) per reported
// quantity; see EXPERIMENTS.md for the mapping and DESIGN.md for the
// ablations.

import (
	"math/rand"
	"testing"

	"ghostspec/internal/arch"
	"ghostspec/internal/core/ghost"
	"ghostspec/internal/hyp"
	"ghostspec/internal/mem"
	"ghostspec/internal/pgtable"
	"ghostspec/internal/proxy"
	"ghostspec/internal/randtest"
	"ghostspec/internal/suite"
	"ghostspec/internal/telemetry"
	"ghostspec/internal/telemetry/trace"
)

// ---------------------------------------------------------------------
// E7: boot overhead (paper: 1.49s -> 4.76s, 3.2x). Boot = hypervisor
// initialisation; ghost boot adds the initial recording and the
// boot-layout check.

func BenchmarkBootNoGhost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := hyp.New(hyp.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBootGhost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hv, err := hyp.New(hyp.Config{})
		if err != nil {
			b.Fatal(err)
		}
		rec := ghost.Attach(hv)
		if n := len(rec.Failures()); n != 0 {
			b.Fatalf("%d boot alarms", n)
		}
	}
}

// ---------------------------------------------------------------------
// E7/E1: handwritten suite runtime (paper: 1.07s -> 12.3s, 11.5x).

func BenchmarkSuiteNoGhost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := suite.Run(suite.Options{Ghost: false})
		if s := suite.Summarise(results); s.Failed != 0 {
			b.Fatalf("suite failed: %+v", s)
		}
	}
}

func BenchmarkSuiteGhost(b *testing.B) {
	for i := 0; i < b.N; i++ {
		results := suite.Run(suite.Options{Ghost: true})
		if s := suite.Summarise(results); s.Failed != 0 {
			b.Fatalf("suite failed: %+v", s)
		}
	}
}

// ---------------------------------------------------------------------
// Per-hypercall overhead: share/unshare round trips with and without
// the oracle.

func benchShareLoop(b *testing.B, withGhost bool) {
	hv, err := hyp.New(hyp.Config{})
	if err != nil {
		b.Fatal(err)
	}
	var rec *ghost.Recorder
	if withGhost {
		rec = ghost.Attach(hv)
	}
	d := proxy.New(hv)
	pfn, _ := d.AllocPage()
	telemetry.Reset()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.ShareHyp(0, pfn); err != nil {
			b.Fatal(err)
		}
		if err := d.UnshareHyp(0, pfn); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reportHypercallLatency(b)
	if rec != nil {
		if n := len(rec.Failures()); n != 0 {
			b.Fatalf("%d alarms", n)
		}
	}
}

// reportHypercallLatency adds telemetry histogram percentiles (bucket
// upper bounds) to the benchmark output, alongside ns/op.
func reportHypercallLatency(b *testing.B) {
	b.Helper()
	if telemetry.Disabled() {
		return
	}
	if h, ok := telemetry.Snapshot().Histogram(`hyp_trap_latency_ns{reason="hvc"}`); ok && h.Count > 0 {
		b.ReportMetric(float64(h.Quantile(0.5)), "hvc-p50-ns")
		b.ReportMetric(float64(h.Quantile(0.99)), "hvc-p99-ns")
	}
}

func BenchmarkShareUnshareNoGhost(b *testing.B) { benchShareLoop(b, false) }
func BenchmarkShareUnshareGhost(b *testing.B)   { benchShareLoop(b, true) }

// ---------------------------------------------------------------------
// Telemetry overhead on the hypercall hot path: the same share/unshare
// loop (no ghost) with collection on vs. the Disabled fast path. The
// Off variant must be within 5% of the seed's no-telemetry numbers —
// the "compile-out cheap" requirement.

func benchTelemetryToggle(b *testing.B, disabled bool) {
	prev := telemetry.Disabled()
	telemetry.SetDisabled(disabled)
	defer telemetry.SetDisabled(prev)
	hv, err := hyp.New(hyp.Config{})
	if err != nil {
		b.Fatal(err)
	}
	d := proxy.New(hv)
	pfn, _ := d.AllocPage()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.ShareHyp(0, pfn); err != nil {
			b.Fatal(err)
		}
		if err := d.UnshareHyp(0, pfn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHypercallTelemetryOn(b *testing.B)  { benchTelemetryToggle(b, false) }
func BenchmarkHypercallTelemetryOff(b *testing.B) { benchTelemetryToggle(b, true) }

// ---------------------------------------------------------------------
// Span-tracing overhead on the hypercall hot path, mirroring the
// telemetry pair above: the same share/unshare loop with a tracer
// attached, recording on vs. globally disabled. The Off variant is the
// configuration every instrumented binary ships with — tracer wired,
// switch off — and must stay within 5% of the no-tracer numbers:
// every Begin/End on the path reduces to one atomic load and a
// branch. benchreport -profile enforces that bound in CI; this pair
// is the local microscope.

func benchTraceToggle(b *testing.B, on bool) {
	prev := trace.Enabled()
	trace.SetEnabled(on)
	defer trace.SetEnabled(prev)
	tr := trace.NewTracer(1, 1<<12)
	hv, err := hyp.New(hyp.Config{Tracer: tr})
	if err != nil {
		b.Fatal(err)
	}
	d := proxy.New(hv)
	pfn, _ := d.AllocPage()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := d.ShareHyp(0, pfn); err != nil {
			b.Fatal(err)
		}
		if err := d.UnshareHyp(0, pfn); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHypercallTraceOn(b *testing.B)  { benchTraceToggle(b, true) }
func BenchmarkHypercallTraceOff(b *testing.B) { benchTraceToggle(b, false) }

// TestTraceDisabledPathAllocationFree pins the disabled-path contract
// the benchmarks measure: with the global switch off, a Begin/End
// pair must not allocate at all.
func TestTraceDisabledPathAllocationFree(t *testing.T) {
	prev := trace.Enabled()
	trace.SetEnabled(false)
	defer trace.SetEnabled(prev)
	tr := trace.NewTracer(1, 64)
	name := trace.NewName("bench.alloc-probe")
	if allocs := testing.AllocsPerRun(1000, func() {
		sp := tr.Begin(0, name)
		sp.End()
	}); allocs != 0 {
		t.Errorf("disabled Begin/End pair allocates: %g allocs/op, want 0", allocs)
	}
}

func benchDemandFault(b *testing.B, withGhost bool) {
	newSys := func() (*proxy.Driver, arch.PFN, int) {
		hv, err := hyp.New(hyp.Config{})
		if err != nil {
			b.Fatal(err)
		}
		if withGhost {
			ghost.Attach(hv)
		}
		// Each fault maps a 2MB block, so fresh faults need 2MB
		// strides; the system runs out after nRegions of them.
		base := arch.PhysToPFN(hv.HostMemStart())
		nRegions := int(hv.HostMemPages()/512) - 3
		return proxy.New(hv), base, nRegions
	}
	d, base, nRegions := newSys()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%nRegions == 0 && i > 0 {
			b.StopTimer()
			d, base, nRegions = newSys()
			b.StartTimer()
		}
		pfn := base + arch.PFN((i%nRegions)*512)
		if ok, err := d.Access(0, arch.IPA(pfn.Phys()), true); err != nil || !ok {
			b.Fatalf("fault: ok=%v err=%v", ok, err)
		}
	}
}

func BenchmarkHostDemandFaultNoGhost(b *testing.B) { benchDemandFault(b, false) }
func BenchmarkHostDemandFaultGhost(b *testing.B)   { benchDemandFault(b, true) }

// ---------------------------------------------------------------------
// VM lifecycle end to end.

func benchVMLifecycle(b *testing.B, withGhost bool) {
	hv, err := hyp.New(hyp.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if withGhost {
		ghost.Attach(hv)
	}
	d := proxy.New(hv)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h, donated, err := d.InitVM(0, 1)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.InitVCPU(0, h, 0); err != nil {
			b.Fatal(err)
		}
		mc, err := d.Topup(0, h, 0, 4)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.VCPULoad(0, h, 0); err != nil {
			b.Fatal(err)
		}
		gp, _ := d.AllocPage()
		if err := d.MapGuest(0, gp, 16); err != nil {
			b.Fatal(err)
		}
		if err := d.VCPUPut(0); err != nil {
			b.Fatal(err)
		}
		if err := d.TeardownVM(0, h); err != nil {
			b.Fatal(err)
		}
		for _, pfn := range donated {
			if err := d.ReclaimPage(0, pfn); err != nil {
				b.Fatal(err)
			}
			d.FreePage(pfn)
		}
		for _, pfn := range mc {
			_ = d.ReclaimPage(0, pfn) // table pages may already be gone
			d.FreePage(pfn)
		}
		if err := d.ReclaimPage(0, gp); err != nil {
			b.Fatal(err)
		}
		d.FreePage(gp)
	}
}

func BenchmarkVMLifecycleNoGhost(b *testing.B) { benchVMLifecycle(b, false) }
func BenchmarkVMLifecycleGhost(b *testing.B)   { benchVMLifecycle(b, true) }

// ---------------------------------------------------------------------
// E3: random-testing throughput (paper: ~200k hypercalls/hour in QEMU)
// and the guided-vs-unguided ablation.

func benchRandom(b *testing.B, guided bool) {
	hv, err := hyp.New(hyp.Config{})
	if err != nil {
		b.Fatal(err)
	}
	rec := ghost.Attach(hv)
	tr := randtest.New(proxy.New(hv), rec, 1, guided)
	b.ResetTimer()
	tr.Run(b.N)
	b.StopTimer()
	s := tr.Stats()
	b.ReportMetric(float64(s.Calls)/float64(b.N), "calls/step")
	b.ReportMetric(float64(s.HostCrashes), "host-crashes")
	b.ReportMetric(float64(s.VMsCreated), "vms-created")
}

func BenchmarkRandGuided(b *testing.B)   { benchRandom(b, true) }
func BenchmarkRandUnguided(b *testing.B) { benchRandom(b, false) }

// ---------------------------------------------------------------------
// Abstraction-function cost: interpreting a populated host table.

func BenchmarkInterpretPgtable(b *testing.B) {
	hv, err := hyp.New(hyp.Config{})
	if err != nil {
		b.Fatal(err)
	}
	d := proxy.New(hv)
	// Populate: fault in a spread of pages and share a few.
	base := arch.PhysToPFN(hv.HostMemStart())
	for i := 0; i < 32; i++ {
		pfn := base + arch.PFN(i*613)
		if ok, _ := d.Access(0, arch.IPA(pfn.Phys()), true); !ok {
			b.Fatal("populate fault failed")
		}
	}
	for i := 0; i < 8; i++ {
		pfn, _ := d.AllocPage()
		if err := d.ShareHyp(0, pfn); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		abs := ghost.InterpretPgtable(hv.Mem, hv.HostPGTRoot())
		if abs.Mapping.IsEmpty() {
			b.Fatal("empty interpretation")
		}
	}
}

// ---------------------------------------------------------------------
// Incremental abstraction: re-abstracting the host table after a small
// mutation, through the dirty-generation cache vs a full
// re-interpretation. This is the steady-state hook cost — each
// hypercall perturbs a handful of table pages, and the cache re-walks
// only those subtrees.

func benchAbstract(b *testing.B, incremental bool) {
	hv, err := hyp.New(hyp.Config{})
	if err != nil {
		b.Fatal(err)
	}
	d := proxy.New(hv)
	// Populate a spread of host mappings so the table has realistic
	// depth and width before the measured churn starts.
	base := arch.PhysToPFN(hv.HostMemStart())
	for i := 0; i < 64; i++ {
		pfn := base + arch.PFN(i*613)
		if ok, _ := d.Access(0, arch.IPA(pfn.Phys()), true); !ok {
			b.Fatal("populate fault failed")
		}
	}
	pfn, _ := d.AllocPage()
	var c ghost.PgtableCache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One small mutation per iteration, like a real hypercall.
		if i%2 == 0 {
			if err := d.ShareHyp(0, pfn); err != nil {
				b.Fatal(err)
			}
		} else {
			if err := d.UnshareHyp(0, pfn); err != nil {
				b.Fatal(err)
			}
		}
		var abs ghost.AbstractPgtable
		if incremental {
			abs, _ = c.Interpret(hv.Mem, hv.HostPGTRoot())
		} else {
			abs = ghost.InterpretPgtable(hv.Mem, hv.HostPGTRoot())
		}
		if abs.Mapping.IsEmpty() {
			b.Fatal("empty interpretation")
		}
	}
	b.StopTimer()
	if incremental {
		st := c.Stats()
		b.ReportMetric(float64(st.PagesWalked)/float64(b.N), "pages-walked/op")
	}
}

func BenchmarkAbstractIncremental(b *testing.B) { benchAbstract(b, true) }
func BenchmarkAbstractFull(b *testing.B)        { benchAbstract(b, false) }

// TestAbstractIncrementalFasterThanFull gates the cache: re-abstracting
// through it must beat a full re-interpretation. A strict speed-up
// floor would flake on loaded machines; losing to the full walk
// outright means the cache is broken.
func TestAbstractIncrementalFasterThanFull(t *testing.T) {
	inc := testing.Benchmark(BenchmarkAbstractIncremental)
	full := testing.Benchmark(BenchmarkAbstractFull)
	if inc.N == 0 || full.N == 0 {
		t.Fatal("abstraction benchmark failed")
	}
	t.Logf("incremental %dns/op, full %dns/op (%.1fx)", inc.NsPerOp(), full.NsPerOp(),
		float64(full.NsPerOp())/float64(inc.NsPerOp()))
	if inc.NsPerOp() >= full.NsPerOp() {
		t.Errorf("incremental abstraction (%dns/op) not faster than full (%dns/op)", inc.NsPerOp(), full.NsPerOp())
	}
}

// ---------------------------------------------------------------------
// Ablation 1 (DESIGN.md): coalesced maplet lists vs a naive per-page
// map for the abstract mapping representation, building the
// abstraction of a block-heavy address space and comparing two of
// them for equality (the oracle's hot operations).

// naiveMapping is the strawman: one entry per page.
type naiveMapping map[uint64]ghost.Target

func buildNaive(n int) naiveMapping {
	m := make(naiveMapping)
	attrs := arch.Attrs{Perms: arch.PermRWX, Mem: arch.MemNormal}
	for i := 0; i < n; i++ {
		va := uint64(i) << arch.PageShift
		m[va] = ghost.Mapped(arch.PhysAddr(va), attrs)
	}
	return m
}

func buildCoalesced(n int) ghost.Mapping {
	var m ghost.Mapping
	attrs := arch.Attrs{Perms: arch.PermRWX, Mem: arch.MemNormal}
	for i := 0; i < n; i++ {
		va := uint64(i) << arch.PageShift
		m.Extend(va, 1, ghost.Mapped(arch.PhysAddr(va), attrs))
	}
	return m
}

const ablationPages = 4096 // 16MB of contiguous identity mapping

func BenchmarkMappingBuildCoalesced(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := buildCoalesced(ablationPages)
		if m.NrMaplets() != 1 {
			b.Fatal("not coalesced")
		}
	}
}

func BenchmarkMappingBuildNaive(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := buildNaive(ablationPages)
		if len(m) != ablationPages {
			b.Fatal("bad build")
		}
	}
}

func BenchmarkMappingEqualCoalesced(b *testing.B) {
	x, y := buildCoalesced(ablationPages), buildCoalesced(ablationPages)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !ghost.EqualMappings(x, y) {
			b.Fatal("unequal")
		}
	}
}

func BenchmarkMappingEqualNaive(b *testing.B) {
	x, y := buildNaive(ablationPages), buildNaive(ablationPages)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k, v := range x {
			if y[k] != v {
				b.Fatal("unequal")
			}
		}
	}
}

// ---------------------------------------------------------------------
// Ablation 2 (DESIGN.md): ownership-following partial recording vs a
// whole-state snapshot at every lock event — the cost the paper avoids
// by structuring the ghost state around the locks instead of a big
// instrumentation lock.

func BenchmarkRecordPartialHost(b *testing.B) {
	hv := populatedSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ghost.AbstractHost(hv); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRecordFullState(b *testing.B) {
	hv := populatedSystem(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ghost.AbstractHost(hv); err != nil {
			b.Fatal(err)
		}
		_ = ghost.AbstractHyp(hv)
		_ = ghost.AbstractVMs(hv)
		for s := 0; s < hyp.MaxVMs; s++ {
			if vm := hv.VMSnapshot(s); vm != nil {
				_ = ghost.AbstractGuest(hv, vm.Handle)
			}
		}
	}
}

// populatedSystem boots a system with host mappings, shares, and a VM.
func populatedSystem(b *testing.B) *hyp.Hypervisor {
	b.Helper()
	hv, err := hyp.New(hyp.Config{})
	if err != nil {
		b.Fatal(err)
	}
	d := proxy.New(hv)
	base := arch.PhysToPFN(hv.HostMemStart())
	for i := 0; i < 16; i++ {
		if ok, _ := d.Access(0, arch.IPA((base + arch.PFN(i*613)).Phys()), true); !ok {
			b.Fatal("populate failed")
		}
	}
	h, _, err := d.InitVM(0, 2)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.InitVCPU(0, h, 0); err != nil {
		b.Fatal(err)
	}
	if _, err := d.Topup(0, h, 0, 6); err != nil {
		b.Fatal(err)
	}
	if err := d.VCPULoad(0, h, 0); err != nil {
		b.Fatal(err)
	}
	gp, _ := d.AllocPage()
	if err := d.MapGuest(0, gp, 16); err != nil {
		b.Fatal(err)
	}
	return hv
}

// ---------------------------------------------------------------------
// E6/E7: ghost memory impact — frames touched and live maplets after a
// working session (paper: ~18MB dominated by page-table
// representations).

func BenchmarkGhostMemoryImpact(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hv, err := hyp.New(hyp.Config{})
		if err != nil {
			b.Fatal(err)
		}
		rec := ghost.Attach(hv)
		tr := randtest.New(proxy.New(hv), rec, 99, true)
		tr.Run(500)
		st := rec.Stats()
		b.ReportMetric(float64(st.MapletsLive), "maplets")
		b.ReportMetric(float64(hv.Mem.FrameCount()), "frames")
	}
}

// ---------------------------------------------------------------------
// Guest program interpretation: instructions per second with and
// without the oracle (only vcpu_run traps cross EL2; the arithmetic
// executes "at EL1" either way).

func benchGuestProgram(b *testing.B, withGhost bool) {
	hv, err := hyp.New(hyp.Config{})
	if err != nil {
		b.Fatal(err)
	}
	if withGhost {
		ghost.Attach(hv)
	}
	d := proxy.New(hv)
	h, _, err := d.InitVM(0, 1)
	if err != nil {
		b.Fatal(err)
	}
	if err := d.InitVCPU(0, h, 0); err != nil {
		b.Fatal(err)
	}
	// A compute-heavy loop that yields when the counter hits zero.
	prog := []hyp.Insn{
		{Op: hyp.OpMovi, Dst: 1, Imm: 60},
		{Op: hyp.OpMovi, Dst: 2, Imm: ^uint64(0)},
		{Op: hyp.OpMovi, Dst: 3, Imm: 0},
		{Op: hyp.OpAdd, Dst: 1, Src: 2},         // counter--
		{Op: hyp.OpBne, Dst: 1, Src: 3, Imm: 3}, // loop
		{Op: hyp.OpYield},
		{Op: hyp.OpBne, Dst: 2, Src: 3, Imm: 0}, // restart forever
	}
	if !hv.LoadGuestProgram(h, 0, prog) {
		b.Fatal("program load failed")
	}
	if err := d.VCPULoad(0, h, 0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.VCPURun(0); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(125, "guest-insns/op")
}

func BenchmarkGuestProgramNoGhost(b *testing.B) { benchGuestProgram(b, false) }
func BenchmarkGuestProgramGhost(b *testing.B)   { benchGuestProgram(b, true) }

// ---------------------------------------------------------------------
// Trace record and offline replay throughput.

func BenchmarkTraceReplay(b *testing.B) {
	hv, err := hyp.New(hyp.Config{})
	if err != nil {
		b.Fatal(err)
	}
	rec := ghost.Attach(hv)
	trace := rec.RecordTrace()
	tr := randtest.New(proxy.New(hv), rec, 11, true)
	tr.Run(500)
	if len(trace.Events) == 0 {
		b.Fatal("empty trace")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fails := ghost.Replay(trace); len(fails) != 0 {
			b.Fatalf("replay failures: %v", fails)
		}
	}
	b.ReportMetric(float64(len(trace.Events)), "events/op")
}

// ---------------------------------------------------------------------
// Page-table walker microbenchmarks (substrate cost context).

func BenchmarkHardwareWalk(b *testing.B) {
	m := arch.NewMemory(arch.DefaultLayout())
	pool := mem.NewPool("t", arch.PFN(0x90000), 64)
	tbl, err := pgtable.New("bench", m, arch.Stage2, pgtable.PoolAllocator{Pool: pool}, 2)
	if err != nil {
		b.Fatal(err)
	}
	attrs := arch.Attrs{Perms: arch.PermRWX, Mem: arch.MemNormal}
	if err := tbl.Map(0x4000_0000, 64*arch.PageSize, 0x4000_0000, attrs, false); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ia := 0x4000_0000 + uint64(rng.Intn(64))*arch.PageSize
		if _, f := arch.WalkRead(m, tbl.Root(), ia); f != nil {
			b.Fatal(f)
		}
	}
}

// benchTranslate times repeated host translations of a page-granular
// working set: through the software TLB (BenchmarkTranslateTLB, hits
// after the first pass) or as a plain 4-level arch.Walk over the same
// table (BenchmarkTranslateWalk).
func benchTranslate(b *testing.B, viaTLB bool) {
	hv, err := hyp.New(hyp.Config{})
	if err != nil {
		b.Fatal(err)
	}
	d := proxy.New(hv)
	const pages = 64
	ipas := make([]arch.IPA, 0, pages)
	for i := 0; i < pages; i++ {
		pfn, err := d.AllocPage()
		if err != nil {
			b.Fatal(err)
		}
		ipa := arch.IPA(pfn.Phys())
		if ok, err := d.Access(0, ipa, true); err != nil || !ok {
			b.Fatalf("pre-fault: ok=%v err=%v", ok, err)
		}
		// Split the demand-mapped block to page granularity so the walk
		// leg measures a full 4-level walk.
		if err := d.ShareHyp(0, pfn); err != nil {
			b.Fatal(err)
		}
		if err := d.UnshareHyp(0, pfn); err != nil {
			b.Fatal(err)
		}
		ipas = append(ipas, ipa)
	}
	acc, root := arch.Access{}, hv.HostPGTRoot()
	for _, ipa := range ipas {
		if _, f := hv.TranslateHost(0, ipa, acc); f != nil {
			b.Fatal(f)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var f *arch.Fault
		if viaTLB {
			_, f = hv.TranslateHost(0, ipas[i%pages], acc)
		} else {
			_, f = arch.Walk(hv.Mem, root, uint64(ipas[i%pages]), acc)
		}
		if f != nil {
			b.Fatal(f)
		}
	}
}

func BenchmarkTranslateTLB(b *testing.B)  { benchTranslate(b, true) }
func BenchmarkTranslateWalk(b *testing.B) { benchTranslate(b, false) }

func BenchmarkPgtableMapUnmap(b *testing.B) {
	m := arch.NewMemory(arch.DefaultLayout())
	pool := mem.NewPool("t", arch.PFN(0x90000), 4096)
	tbl, err := pgtable.New("bench", m, arch.Stage2, pgtable.PoolAllocator{Pool: pool}, 2)
	if err != nil {
		b.Fatal(err)
	}
	attrs := arch.Attrs{Perms: arch.PermRWX, Mem: arch.MemNormal}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		va := 0x4000_0000 + uint64(i%512)*arch.PageSize
		if err := tbl.Map(va, arch.PageSize, arch.PhysAddr(va), attrs, false); err != nil {
			b.Fatal(err)
		}
		if err := tbl.Unmap(va, arch.PageSize); err != nil {
			b.Fatal(err)
		}
	}
}
