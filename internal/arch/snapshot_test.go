package arch

import "testing"

func testLayout() MemLayout {
	return MemLayout{RAMStart: 1 << 30, RAMSize: 4 << 20, MMIOSize: 1 << 20}
}

func TestSnapshotRestoreRewindsContent(t *testing.T) {
	m := NewMemory(testLayout())
	base := m.RAMStart()
	m.Write64(base, 0x1111)
	m.Write64(base+PageSize, 0x2222)

	img := m.CaptureImage()
	bl, ok := img.NewBaseline(m)
	if !ok {
		t.Fatal("baseline over the captured memory must verify")
	}

	genBefore := m.FrameGen(base)
	m.Write64(base, 0xdead)
	m.Write64(base+2*PageSize, 0xbeef) // frame born after capture
	if n := bl.Restore(); n != 2 {
		t.Fatalf("restore rewrote %d frames, want 2 (one dirty, one new)", n)
	}
	if got := m.Read64(base); got != 0x1111 {
		t.Fatalf("restored word = %#x, want 0x1111", got)
	}
	if got := m.Read64(base + PageSize); got != 0x2222 {
		t.Fatalf("untouched word = %#x, want 0x2222", got)
	}
	if got := m.Read64(base + 2*PageSize); got != 0 {
		t.Fatalf("post-capture frame = %#x, want zeroed", got)
	}
	if g := m.FrameGen(base); g <= genBefore {
		t.Fatalf("restore must bump generations forward: %d -> %d", genBefore, g)
	}

	// A second restore with nothing dirty is a no-op.
	if n := bl.Restore(); n != 0 {
		t.Fatalf("idle restore rewrote %d frames, want 0", n)
	}
}

func TestSnapshotDeltaPortableAcrossMemories(t *testing.T) {
	// Two memories brought to the same state by the same deterministic
	// writes, like two campaign workers after boot.
	mkBooted := func() *Memory {
		m := NewMemory(testLayout())
		m.Write64(m.RAMStart(), 0xb001)
		m.Write64(m.RAMStart()+8, 0xb002)
		return m
	}
	ma, mb := mkBooted(), mkBooted()

	img := ma.CaptureImage()
	bla, ok := img.NewBaseline(ma)
	if !ok {
		t.Fatal("baseline a")
	}
	blb, ok := img.NewBaseline(mb)
	if !ok {
		t.Fatal("baseline b must verify against a sibling's image")
	}

	// Worker A runs: mutates a boot frame and touches a new one.
	ma.Write64(ma.RAMStart(), 0xaaaa)
	ma.Write64(ma.RAMStart()+3*PageSize, 0xcccc)
	delta := bla.CaptureDelta()
	if delta.Frames() != 2 {
		t.Fatalf("delta frames = %d, want 2", delta.Frames())
	}

	// Worker B forks from A's end state without replaying.
	if n := blb.RestoreWith(delta); n != 2 {
		t.Fatalf("delta restore rewrote %d frames, want 2", n)
	}
	if d := DiffMemory(ma, mb, 8); len(d) != 0 {
		t.Fatalf("restored sibling diverges: %v", d)
	}

	// And a plain restore reverts the delta frames back to base.
	if n := blb.Restore(); n != 2 {
		t.Fatalf("base restore rewrote %d frames, want 2", n)
	}
	if got := mb.Read64(mb.RAMStart()); got != 0xb001 {
		t.Fatalf("base word = %#x, want 0xb001", got)
	}
	if got := mb.Read64(mb.RAMStart() + 3*PageSize); got != 0 {
		t.Fatalf("delta-born frame = %#x, want zero after base restore", got)
	}
}

func TestSnapshotDeltaSkipsContentDrift(t *testing.T) {
	m := NewMemory(testLayout())
	m.Write64(m.RAMStart(), 0x42)
	img := m.CaptureImage()
	bl, _ := img.NewBaseline(m)

	// Write the same value back: generation moves, content does not.
	m.Write64(m.RAMStart(), 0x42)
	if d := bl.CaptureDelta(); d.Frames() != 0 {
		t.Fatalf("content-identical frame recorded in delta (%d frames)", d.Frames())
	}
	// The re-baseline from CaptureDelta means no rewrite on restore.
	if n := bl.Restore(); n != 0 {
		t.Fatalf("restore rewrote %d frames after re-baseline, want 0", n)
	}
}

func TestSnapshotBaselineRejectsDivergedMemory(t *testing.T) {
	ma := NewMemory(testLayout())
	ma.Write64(ma.RAMStart(), 0x1)
	img := ma.CaptureImage()

	mb := NewMemory(testLayout())
	mb.Write64(mb.RAMStart(), 0x999) // different boot
	if _, ok := img.NewBaseline(mb); ok {
		t.Fatal("baseline over diverged memory must not verify")
	}
}

func TestDiffMemoryFindsMismatch(t *testing.T) {
	ma := NewMemory(testLayout())
	mb := NewMemory(testLayout())
	ma.Write64(ma.RAMStart()+16, 7)
	mb.Write64(mb.RAMStart()+16, 8)
	if d := DiffMemory(ma, mb, 8); len(d) != 1 {
		t.Fatalf("diff = %v, want exactly one mismatch", d)
	}
	// One side touched, other side untouched-but-zero is not a diff...
	ma.Write64(ma.RAMStart()+PageSize, 0)
	if d := DiffMemory(ma, mb, 8); len(d) != 1 {
		t.Fatalf("zero-written vs untouched must not differ: %v", d)
	}
	// ...but nonzero vs untouched is.
	ma.Write64(ma.RAMStart()+2*PageSize, 5)
	if d := DiffMemory(ma, mb, 8); len(d) != 2 {
		t.Fatalf("nonzero vs untouched must differ: %v", d)
	}
}

// TestRestoreIdenticalFrameBumpsOnce: a frame whose generation moved
// but whose content is back at the image value (or, for a zero image
// frame, still zero) is rewritten by a restore with no word changed,
// and its generation still moves by exactly one, so generation-keyed
// consumers see the rewrite and the next idle restore skips it.
func TestRestoreIdenticalFrameBumpsOnce(t *testing.T) {
	m := NewMemory(testLayout())
	base := m.RAMStart()
	m.Write64(base, 0x1111)
	m.ZeroPage(base + PageSize) // touched, zero in the image

	img := m.CaptureImage()
	bl, ok := img.NewBaseline(m)
	if !ok {
		t.Fatal("baseline over the captured memory must verify")
	}
	m.Write64(base, 0x1111)       // same value: gen moves, content does not
	m.Write64(base+PageSize+8, 0) // same for the zero frame
	g0, g1 := m.FrameGen(base), m.FrameGen(base+PageSize)
	if n := bl.Restore(); n != 2 {
		t.Fatalf("restore rewrote %d frames, want 2", n)
	}
	if g := m.FrameGen(base); g != g0+1 {
		t.Fatalf("identical image frame: gen %d -> %d, want one bump", g0, g)
	}
	if g := m.FrameGen(base + PageSize); g != g1+1 {
		t.Fatalf("identical zero frame: gen %d -> %d, want one bump", g1, g)
	}
	if m.Read64(base) != 0x1111 {
		t.Fatal("restore changed the identical frame's content")
	}
	if n := bl.Restore(); n != 0 {
		t.Fatalf("idle restore rewrote %d frames, want 0", n)
	}
}
