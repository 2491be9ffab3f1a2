package randtest

import (
	"bytes"
	"errors"
	"testing"

	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
)

// wireSampleTrace exercises every op kind and every Op field with
// distinct values, so a field the codec forgot would break round-trip.
func wireSampleTrace() *Trace {
	return &Trace{Ops: []Op{
		{Kind: OpAlloc, CPU: 1, PFN: 0x81234},
		{Kind: OpFree, CPU: 2, PFN: 0x81234},
		{Kind: OpTouch, CPU: 0, PFN: 0x81235, Write: true},
		{Kind: OpShare, PFN: 0x81236},
		{Kind: OpUnshare, PFN: 0x81236},
		{Kind: OpDonate, PFN: 0x81237, Nr: 3},
		{Kind: OpReclaim, PFN: 0x81237},
		{Kind: OpShareRange, PFN: 0x81240, Nr: 7},
		{Kind: OpInitVM, Nr: 2, H: 0x11},
		{Kind: OpInitVCPU, H: 0x11, VCPU: 1},
		{Kind: OpTopup, H: 0x11, VCPU: 1, Nr: 5},
		{Kind: OpTopupRaw, H: 0x11, VCPU: 1, PFN: 0x81250, Off: 0x40, Nr: 1 << 20},
		{Kind: OpLoad, H: 0x11, VCPU: 1},
		{Kind: OpQueueGuest, H: 0x11, VCPU: 1,
			Guest: hyp.GuestOp{Kind: hyp.GuestAccess, IPA: 0x4000, Write: true, Value: 0xdead}},
		{Kind: OpLoadProgram, H: 0x11, VCPU: 1, Prog: []hyp.Insn{
			{Op: 1, Dst: 2, Src: 3, Imm: 0xfeed},
			{Op: 0, Dst: 1, Src: 0, Imm: 42},
		}},
		{Kind: OpMapGuest, PFN: 0x81260, GFN: 0x99},
		{Kind: OpRun, H: 0x11, VCPU: 1},
		{Kind: OpPut, H: 0x11, VCPU: 1},
		{Kind: OpHVCRaw, HC: hyp.HC(0x7fff), Args: [4]uint64{1, 2, 3, 1 << 40}},
		{Kind: OpFaultAgain, PFN: 0x81235, Write: true},
		{Kind: OpTeardown, H: 0x11},
	}}
}

// TestTraceWireRoundTrip pins the load-bearing properties: decoding an
// encoded trace reproduces it exactly, and re-encoding the decoded
// trace is byte-identical (determinism, the basis of finding dedup).
func TestTraceWireRoundTrip(t *testing.T) {
	tr := wireSampleTrace()
	blob := EncodeTrace(tr)
	if again := EncodeTrace(tr); !bytes.Equal(blob, again) {
		t.Fatal("encoding the same trace twice produced different bytes")
	}
	got, err := DecodeTrace(blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.String() != tr.String() {
		t.Fatalf("round-trip changed the trace:\nwant:\n%s\ngot:\n%s", tr, got)
	}
	if reblob := EncodeTrace(got); !bytes.Equal(blob, reblob) {
		t.Fatal("re-encoding the decoded trace is not byte-identical")
	}
}

// TestTraceWireNil pins that a nil trace encodes as a decodable empty
// trace (findings may carry an empty Min).
func TestTraceWireNil(t *testing.T) {
	got, err := DecodeTrace(EncodeTrace(nil))
	if err != nil {
		t.Fatalf("decode(encode(nil)): %v", err)
	}
	if got.Len() != 0 {
		t.Fatalf("nil trace decoded to %d ops", got.Len())
	}
}

// TestTraceWireVersionSkew pins the loud rejection of a version this
// binary does not speak — a sync directory shared by binaries from
// different commits.
func TestTraceWireVersionSkew(t *testing.T) {
	blob := EncodeTrace(wireSampleTrace())
	blob[4] = TraceWireVersion + 1 // version byte follows the 4-byte magic
	if _, err := DecodeTrace(blob); !errors.Is(err, ErrWireVersion) {
		t.Fatalf("skewed version decoded with err=%v, want ErrWireVersion", err)
	}
}

// TestTraceWireStrict pins that corruption never misparses silently:
// bad magic, every possible truncation, and trailing garbage all fail.
func TestTraceWireStrict(t *testing.T) {
	blob := EncodeTrace(wireSampleTrace())

	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := DecodeTrace(bad); err == nil {
		t.Error("bad magic decoded without error")
	}
	for n := 0; n < len(blob); n++ {
		if _, err := DecodeTrace(blob[:n]); err == nil {
			t.Fatalf("truncation to %d/%d bytes decoded without error", n, len(blob))
		}
	}
	if _, err := DecodeTrace(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Error("trailing byte decoded without error")
	}
}

func hashSampleTrace(pfnBase uint64, handle uint32) *Trace {
	return &Trace{Ops: []Op{
		{Kind: OpAlloc, CPU: 1, PFN: arch.PFN(pfnBase)},
		{Kind: OpShare, PFN: arch.PFN(pfnBase)},
		{Kind: OpInitVM, Nr: 2, H: hyp.Handle(handle)},
		{Kind: OpUnshare, PFN: arch.PFN(pfnBase)},
		{Kind: OpTouch, PFN: arch.PFN(pfnBase + 1), Write: true},
		{Kind: OpTeardown, H: hyp.Handle(handle)},
	}}
}

// TestTraceHashCanonical pins the dedup normalization: the same op
// structure over different concrete frames and handles — two workers
// reproducing one bug — hashes identically, while a structural change
// does not.
func TestTraceHashCanonical(t *testing.T) {
	a := hashSampleTrace(0x81000, 0x11)
	b := hashSampleTrace(0x9f3c0, 0xbeef)
	if TraceHash(a) != TraceHash(b) {
		t.Error("renumbered-equivalent traces hash differently")
	}
	c := hashSampleTrace(0x81000, 0x11)
	c.Ops[0], c.Ops[1] = c.Ops[1], c.Ops[0]
	if TraceHash(a) == TraceHash(c) {
		t.Error("reordered trace hashes identically")
	}
	// Distinct frames must not collapse: alloc(p1),touch(p2) is not
	// alloc(p1),touch(p1).
	d := hashSampleTrace(0x81000, 0x11)
	d.Ops[4].PFN = d.Ops[0].PFN
	if TraceHash(a) == TraceHash(d) {
		t.Error("traces touching different frames hash identically")
	}
	// CPU placement is renumbered: the same op pattern issued from
	// different concrete CPUs collides, but same-CPU vs cross-CPU
	// structure stays distinct.
	e := hashSampleTrace(0x81000, 0x11)
	for i := range e.Ops {
		e.Ops[i].CPU = (e.Ops[i].CPU + 2) % 4 // consistent relabeling
	}
	if TraceHash(a) != TraceHash(e) {
		t.Error("CPU-relabeled trace hashes differently")
	}
	f := hashSampleTrace(0x81000, 0x11)
	f.Ops[1].CPU = f.Ops[0].CPU // share moves onto the alloc CPU
	if TraceHash(a) == TraceHash(f) {
		t.Error("cross-CPU and same-CPU traces hash identically")
	}
	// The real frame 0 ("no frame") stays distinct from any frame.
	g := hashSampleTrace(0x81000, 0x11)
	g.Ops[4].PFN = 0
	if TraceHash(a) == TraceHash(g) {
		t.Error("frame 0 hashes like a real frame")
	}
}

// TestDedupKeyFallback pins that a finding whose minimization came up
// empty dedups by its full trace instead.
func TestDedupKeyFallback(t *testing.T) {
	full, min := hashSampleTrace(0x81000, 0x11), hashSampleTrace(0x82000, 0x21)
	min.Ops = min.Ops[:3]
	if DedupKey(nil, full) != TraceHash(full) {
		t.Error("empty Min did not fall back to the full trace hash")
	}
	if DedupKey(min, full) != TraceHash(min) {
		t.Error("dedup key is not the minimized-trace hash")
	}
}
