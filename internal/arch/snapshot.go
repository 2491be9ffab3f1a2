package arch

import (
	"fmt"
	"sync/atomic"
)

// Memory snapshot/restore.
//
// The model splits a snapshot into two pieces:
//
//   - MemImage: the captured *content* — an immutable map of frame
//     copies. Pure data, safe to share read-only across workers (every
//     campaign worker boots the same deterministic system, so one
//     worker's image describes every worker's base state).
//
//   - MemBaseline: the per-Memory dirty tracker that ties one Memory
//     to an image. For each frame it remembers the write generation at
//     which the frame's content last matched the image, so a restore
//     only rewrites frames whose generation moved — the copy-on-write
//     trick, driven by the existing per-frame generation counters
//     instead of page protections.
//
// Restores never roll a generation backward. A restored frame is
// rewritten in place, and the blocks whose words changed and then the
// frame have their generations bumped *forward*, so every
// generation-keyed consumer (the ghost pgtable cache) self-invalidates
// exactly where content changed and stays warm everywhere else. TLB
// entries record the descriptor values their walks read, so they see
// the restored values directly. Restore-path code elsewhere in the
// tree must go through these entry points rather than writing frames
// directly; ghostlint's snapshotcheck enforces that.

// MemImage is an immutable content snapshot of every frame a Memory
// had touched at capture time. A nil *Frame value means the frame was
// all-zero (touched but never written, or explicitly cleared).
type MemImage struct {
	frames map[PFN]*Frame
	// mark is the first-touch log length at capture; frames beyond it
	// were born after the image and are implicitly zero in it.
	mark int
}

// Frames returns the number of frames recorded in the image.
func (img *MemImage) Frames() int { return len(img.frames) }

// CaptureImage snapshots the content of every touched frame. The
// memory must be quiescent (no concurrent writers) for the capture to
// be meaningful.
func (m *Memory) CaptureImage() *MemImage {
	img := &MemImage{frames: make(map[PFN]*Frame), mark: m.touchCount()}
	for _, pfn := range m.touchedRange(0, img.mark) {
		c := m.peek(pfn)
		if c == nil {
			continue
		}
		if frameZero(&c.f) {
			img.frames[pfn] = nil
			continue
		}
		d := c.f
		img.frames[pfn] = &d
	}
	return img
}

// MemBaseline tracks one Memory against a MemImage. gens[pfn] is the
// frame's write generation at the last instant its content was known
// to equal the image's; a frame whose live generation still equals its
// recorded one is provably clean and is skipped on restore.
type MemBaseline struct {
	m    *Memory
	img  *MemImage
	gens map[PFN]uint64
	mark int
}

// NewBaseline binds m to the image and verifies m's current content
// matches it frame for frame. The bool result reports the match; on
// mismatch the baseline is still returned but restoring through it
// would be unsound, so callers must fall back to a privately captured
// image. Frames m has touched that the image does not know are
// required to be zero (they are treated as image-zero).
func (img *MemImage) NewBaseline(m *Memory) (*MemBaseline, bool) {
	bl := &MemBaseline{m: m, img: img, gens: make(map[PFN]uint64, len(img.frames))}
	ok := true
	for pfn, want := range img.frames {
		c := m.peek(pfn)
		if c == nil {
			// Deterministic boots touch identical frame sets; a frame
			// the image knows but m never touched still matches if the
			// image recorded it as zero.
			if want != nil {
				ok = false
			}
			bl.gens[pfn] = 0
			continue
		}
		if !frameEqual(&c.f, want) {
			ok = false
		}
		bl.gens[pfn] = c.gen.Load()
	}
	bl.mark = m.touchCount()
	for _, pfn := range m.touchedRange(0, bl.mark) {
		if _, known := bl.gens[pfn]; known {
			continue
		}
		c := m.peek(pfn)
		g := c.gen.Load()
		if !frameZero(&c.f) {
			ok = false
			g = forceDirty(g)
		}
		bl.gens[pfn] = g
	}
	return bl, ok
}

// forceDirty returns a generation value that can never equal the
// frame's current or any future generation (the counter is monotonic),
// marking the frame unconditionally dirty until a restore rewrites it.
func forceDirty(g uint64) uint64 {
	if g == 0 {
		// A never-written frame is zero, so content mismatch implies
		// g >= 1; keep the guard anyway.
		return ^uint64(0)
	}
	return g - 1
}

// absorb folds frames first-touched since the last call into the
// baseline. A new frame is implicitly zero in the image: if its
// content is still zero it is clean at its current generation,
// otherwise it is forced dirty so the next restore clears it.
func (bl *MemBaseline) absorb() {
	n := bl.m.touchCount()
	if n == bl.mark {
		return
	}
	for _, pfn := range bl.m.touchedRange(bl.mark, n) {
		if _, known := bl.gens[pfn]; known {
			continue
		}
		c := bl.m.peek(pfn)
		g := c.gen.Load()
		if !frameZero(&c.f) {
			g = forceDirty(g)
		}
		bl.gens[pfn] = g
	}
	bl.mark = n
}

// MemDelta is the set of frames whose content differs from a base
// image — the portable record of a corpus parent's end state. A nil
// *Frame means the frame is zero in the child but not in the image.
// Like MemImage it is immutable pure data: workers share deltas and
// apply them to their own baselines concurrently.
type MemDelta struct {
	frames map[PFN]*Frame
}

// Frames returns the number of frames the delta rewrites.
func (d *MemDelta) Frames() int {
	if d == nil {
		return 0
	}
	return len(d.frames)
}

// CaptureDelta records every frame whose content currently differs
// from the baseline's image. Frames whose generation moved but whose
// content drifted back to the image value are re-baselined instead of
// recorded, keeping deltas minimal.
func (bl *MemBaseline) CaptureDelta() *MemDelta {
	bl.absorb()
	d := &MemDelta{frames: make(map[PFN]*Frame)}
	for pfn, g := range bl.gens {
		c := bl.m.peek(pfn)
		if c == nil {
			continue
		}
		cur := c.gen.Load()
		if cur == g {
			continue
		}
		if frameEqual(&c.f, bl.img.frames[pfn]) {
			bl.gens[pfn] = cur
			continue
		}
		if frameZero(&c.f) {
			d.frames[pfn] = nil
			continue
		}
		cp := c.f
		d.frames[pfn] = &cp
	}
	return d
}

// Restore rewrites the memory back to the image, touching only dirty
// frames. Returns the number of frames rewritten.
func (bl *MemBaseline) Restore() int { return bl.RestoreWith(nil) }

// RestoreWith rewrites the memory to image+delta (or the plain image
// when delta is nil), touching only frames that need it. Frames
// rewritten to image content are re-baselined at their new generation;
// frames given delta content keep a stale baseline generation so the
// next plain Restore reverts them. Returns the number of frames
// rewritten.
//
// The memory must be quiescent: restore is the worker thread resetting
// its own system between executions, not a concurrent operation.
func (bl *MemBaseline) RestoreWith(delta *MemDelta) int {
	bl.absorb()
	dirty := 0
	for pfn, g := range bl.gens {
		var want *Frame
		inDelta := false
		if delta != nil {
			want, inDelta = delta.frames[pfn]
		}
		if !inDelta {
			want = bl.img.frames[pfn]
		}
		c := bl.m.peek(pfn)
		if c == nil {
			// Known to the image but never touched by this memory:
			// content is image-zero either way unless the delta says
			// otherwise.
			if inDelta && want != nil {
				c = bl.m.frame(pfn.Phys())
			} else {
				continue
			}
		}
		if clean := c.gen.Load() == g; clean && !inDelta {
			continue
		}
		writeFrame(c, want)
		if inDelta {
			// Baseline generation goes (and stays) stale on purpose:
			// the frame no longer matches the image, so the next plain
			// Restore must rewrite it. The bump inside writeFrame
			// already guarantees the live generation moved past g.
			bl.gens[pfn] = forceDirty(g)
		} else {
			bl.gens[pfn] = c.gen.Load()
		}
		dirty++
	}
	// Delta frames the baseline has never seen: the parent run touched
	// frames this memory never has (and the image implies are zero).
	if delta != nil {
		for pfn, want := range delta.frames {
			if _, known := bl.gens[pfn]; known {
				continue
			}
			if want == nil {
				continue // zero in the delta, untouched here: already zero
			}
			c := bl.m.frame(pfn.Phys())
			writeFrame(c, want)
			bl.gens[pfn] = forceDirty(c.gen.Load())
			dirty++
		}
		bl.mark = bl.m.touchCount()
	}
	return dirty
}

// writeFrame stores want (nil = zero) into the cell with storeWords:
// only the words that differ are stored, and only their blocks bumped,
// since a dirty frame usually differs from its image in a few words.
// The frame generation is bumped even when no word differed, because
// RestoreWith's baseline bookkeeping (forceDirty) relies on every
// rewrite moving it.
func writeFrame(c *frameCell, want *Frame) {
	if want == nil {
		want = &zeroFrame
	}
	storeWords(c, 0, PTEsPerTable, want)
}

func frameZero(f *Frame) bool {
	for _, w := range f {
		if w != 0 {
			return false
		}
	}
	return true
}

// frameEqual compares a live frame against a captured copy (nil means
// all-zero).
func frameEqual(f *Frame, want *Frame) bool {
	if want == nil {
		return frameZero(f)
	}
	return *f == *want
}

// DiffMemory compares two memories frame by frame over the union of
// their touched frames (an untouched frame reads as zero) and returns
// human-readable mismatch descriptions, at most max. It is the memory
// half of the snapshot conformance differ: a restored child diffed
// against a freshly booted and replayed system must come back empty.
func DiffMemory(a, b *Memory, max int) []string {
	seen := make(map[PFN]bool)
	var diffs []string
	check := func(pfn PFN) {
		if seen[pfn] || len(diffs) >= max {
			return
		}
		seen[pfn] = true
		ca, cb := a.peek(pfn), b.peek(pfn)
		for i := 0; i < PTEsPerTable; i++ {
			var va, vb uint64
			if ca != nil {
				va = atomic.LoadUint64(&ca.f[i])
			}
			if cb != nil {
				vb = atomic.LoadUint64(&cb.f[i])
			}
			if va != vb {
				diffs = append(diffs, fmt.Sprintf(
					"frame %#x word %d: %#x vs %#x", uint64(pfn.Phys()), i, va, vb))
				return
			}
		}
	}
	for _, pfn := range a.touchedRange(0, a.touchCount()) {
		check(pfn)
	}
	for _, pfn := range b.touchedRange(0, b.touchCount()) {
		check(pfn)
	}
	return diffs
}
