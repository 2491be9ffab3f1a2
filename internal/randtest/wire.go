// Trace wire codec: a deterministic, versioned binary encoding of
// recorded operation traces, the unit the sync directory
// (internal/syncdir) stores as corpus and finding files. Two
// properties are load-bearing and tested:
//
//   - determinism: encoding the same trace always yields the same
//     bytes (every field is written unconditionally, in declaration
//     order, with no maps involved), so content hashes of encoded
//     traces are stable across processes and machines — the basis of
//     finding dedup and corpus-entry dedup (TraceHash);
//   - versioning: the header carries a format version, and decoding
//     rejects versions it does not know with ErrWireVersion instead of
//     misparsing — a sync directory shared by binaries from different
//     commits fails loudly at the first foreign file.
package randtest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"

	"ghostspec/internal/arch"
	"ghostspec/internal/hyp"
)

// TraceWireVersion is the current trace encoding version. Bump it on
// any change to the Op field set or the byte layout; decoders reject
// anything else.
const TraceWireVersion = 1

// traceMagic guards against feeding arbitrary bytes to the decoder.
var traceMagic = [4]byte{'g', 'h', 't', 'r'}

// ErrWireVersion reports a version-skew rejection: the bytes are a
// trace, but from a codec revision this binary does not speak.
var ErrWireVersion = errors.New("randtest: trace wire version mismatch")

// EncodeTrace renders the trace into the versioned wire form. A nil
// trace encodes as an empty trace.
func EncodeTrace(tr *Trace) []byte {
	buf := make([]byte, 0, 16+tr.Len()*24)
	buf = append(buf, traceMagic[:]...)
	buf = append(buf, TraceWireVersion)
	buf = appendUvarint(buf, uint64(tr.Len()))
	if tr != nil {
		for _, op := range tr.Ops {
			buf = appendOp(buf, op)
		}
	}
	return buf
}

// DecodeTrace parses the wire form back into a trace. The decode is
// strict: bad magic, unknown version, truncation, and trailing bytes
// are all errors.
func DecodeTrace(data []byte) (*Trace, error) {
	r := wireReader{data: data}
	var magic [4]byte
	r.bytes(magic[:])
	if r.err == nil && magic != traceMagic {
		return nil, fmt.Errorf("randtest: not a trace wire blob (magic %q)", magic)
	}
	ver := r.byte()
	if r.err == nil && ver != TraceWireVersion {
		return nil, fmt.Errorf("%w: got version %d, this binary speaks %d",
			ErrWireVersion, ver, TraceWireVersion)
	}
	n := r.uvarint()
	tr := &Trace{}
	for i := uint64(0); i < n && r.err == nil; i++ {
		tr.Ops = append(tr.Ops, r.op())
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.pos != len(r.data) {
		return nil, fmt.Errorf("randtest: %d trailing bytes after trace", len(r.data)-r.pos)
	}
	return tr, nil
}

// TraceHash is a canonical content hash of a trace: FNV-1a over the
// wire encoding of its ops with frame numbers, VM handles, and CPU
// indices renumbered in order of first appearance. Recorded PFNs,
// handles, and CPU placements are concrete values from the discovering
// run — two reproductions of the same bug typically differ only in
// where their allocations landed and which CPUs the generator happened
// to pick — and this normalization makes their hashes collide on
// purpose while preserving the *relative* structure (same-CPU vs
// cross-CPU op pairs, same-frame vs different-frame accesses stay
// distinct). Frame 0 and handle 0 ("none") keep id 0.
func TraceHash(tr *Trace) uint64 {
	h := fnv.New64a()
	pfns := map[arch.PFN]uint64{0: 0}
	handles := map[hyp.Handle]uint64{0: 0}
	cpus := map[int]uint64{}
	var buf []byte
	if tr != nil {
		for _, op := range tr.Ops {
			op.CPU = int(renumber(cpus, op.CPU))
			op.PFN = arch.PFN(renumber(pfns, op.PFN))
			op.H = hyp.Handle(renumber(handles, op.H))
			buf = appendOp(buf[:0], op)
			h.Write(buf)
		}
	}
	return h.Sum64()
}

func renumber[K comparable](ids map[K]uint64, k K) uint64 {
	id, ok := ids[k]
	if !ok {
		id = uint64(len(ids))
		ids[k] = id
	}
	return id
}

// DedupKey is the identity of a finding: the canonical hash of its
// minimized trace, or of the full trace when minimization came up
// empty. Two campaigns that shrink the same bug to the same minimal op
// sequence — whatever concrete frames their allocations landed on —
// get the same key.
func DedupKey(min, full *Trace) uint64 {
	if min.Len() == 0 {
		return TraceHash(full)
	}
	return TraceHash(min)
}

// appendOp writes every Op field unconditionally in declaration order —
// sparser encodings would be smaller but would make the byte layout
// depend on the op kind, a needless hazard for determinism reviews.
func appendOp(buf []byte, op Op) []byte {
	buf = append(buf, byte(op.Kind))
	buf = appendVarint(buf, int64(op.CPU))
	buf = appendUvarint(buf, uint64(op.PFN))
	buf = appendUvarint(buf, op.Nr)
	buf = appendUvarint(buf, uint64(op.H))
	buf = appendVarint(buf, int64(op.VCPU))
	buf = appendUvarint(buf, op.GFN)
	buf = appendUvarint(buf, op.Off)
	buf = appendBool(buf, op.Write)
	buf = appendUvarint(buf, uint64(op.HC))
	for _, a := range op.Args {
		buf = appendUvarint(buf, a)
	}
	buf = append(buf, byte(op.Guest.Kind))
	buf = appendUvarint(buf, uint64(op.Guest.IPA))
	buf = appendBool(buf, op.Guest.Write)
	buf = appendUvarint(buf, op.Guest.Value)
	buf = appendUvarint(buf, uint64(len(op.Prog)))
	for _, in := range op.Prog {
		buf = append(buf, byte(in.Op))
		buf = appendVarint(buf, int64(in.Dst))
		buf = appendVarint(buf, int64(in.Src))
		buf = appendUvarint(buf, in.Imm)
	}
	return buf
}

func (r *wireReader) op() Op {
	var op Op
	op.Kind = OpKind(r.byte())
	op.CPU = int(r.varint())
	op.PFN = arch.PFN(r.uvarint())
	op.Nr = r.uvarint()
	op.H = hyp.Handle(r.uvarint())
	op.VCPU = int(r.varint())
	op.GFN = r.uvarint()
	op.Off = r.uvarint()
	op.Write = r.bool()
	op.HC = hyp.HC(r.uvarint())
	for i := range op.Args {
		op.Args[i] = r.uvarint()
	}
	op.Guest.Kind = hyp.GuestOpKind(r.byte())
	op.Guest.IPA = arch.IPA(r.uvarint())
	op.Guest.Write = r.bool()
	op.Guest.Value = r.uvarint()
	n := r.uvarint()
	for i := uint64(0); i < n && r.err == nil; i++ {
		var in hyp.Insn
		in.Op = hyp.Op(r.byte())
		in.Dst = int(r.varint())
		in.Src = int(r.varint())
		in.Imm = r.uvarint()
		op.Prog = append(op.Prog, in)
	}
	return op
}

// --- primitive wire helpers -----------------------------------------

func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func appendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

func appendBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, 1)
	}
	return append(buf, 0)
}

// wireReader is a cursor over a wire blob that latches the first error
// so field reads can chain without per-call checks.
type wireReader struct {
	data []byte
	pos  int
	err  error
}

var errWireTruncated = errors.New("randtest: truncated trace wire blob")

func (r *wireReader) fail() {
	if r.err == nil {
		r.err = errWireTruncated
	}
}

func (r *wireReader) byte() byte {
	if r.err != nil || r.pos >= len(r.data) {
		r.fail()
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return b
}

func (r *wireReader) bytes(out []byte) {
	if r.err != nil || r.pos+len(out) > len(r.data) {
		r.fail()
		return
	}
	copy(out, r.data[r.pos:])
	r.pos += len(out)
}

func (r *wireReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.data[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *wireReader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.data[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

func (r *wireReader) bool() bool { return r.byte() != 0 }
