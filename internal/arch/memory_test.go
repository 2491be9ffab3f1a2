package arch

import (
	"maps"
	"math/rand/v2"
	"sync"
	"testing"
)

// TestFrameGenerations: every store bumps the containing frame's
// generation exactly once, ZeroPage bumps once, and untouched frames
// report generation zero.
func TestFrameGenerations(t *testing.T) {
	m := NewMemory(DefaultLayout())
	pa := m.RAMStart()

	if g := m.FrameGen(pa); g != 0 {
		t.Fatalf("fresh frame gen = %d, want 0", g)
	}
	m.Write64(pa, 1)
	if g := m.FrameGen(pa); g != 1 {
		t.Fatalf("after one write gen = %d, want 1", g)
	}
	m.Write64(pa+8, 2)
	m.WritePTE(pa, 3, PTE(7))
	if g := m.FrameGen(pa); g != 3 {
		t.Fatalf("after three writes gen = %d, want 3", g)
	}

	// Reads do not bump.
	_ = m.Read64(pa)
	_ = m.ReadPTE(pa, 3)
	if g := m.FrameGen(pa); g != 3 {
		t.Fatalf("reads bumped gen to %d", g)
	}

	// ZeroPage is one bump, regardless of word count.
	m.ZeroPage(pa)
	if g := m.FrameGen(pa); g != 4 {
		t.Fatalf("after ZeroPage gen = %d, want 4", g)
	}

	// A neighbouring frame is independent.
	if g := m.FrameGen(pa + PageSize); g != 0 {
		t.Fatalf("neighbour frame gen = %d, want 0", g)
	}

	// The ref observes the same counter as FrameGen.
	ref := m.FrameGenRef(pa)
	m.Write64(pa, 9)
	if ref.Load() != m.FrameGen(pa) || ref.Load() != 5 {
		t.Fatalf("ref = %d, FrameGen = %d, want 5", ref.Load(), m.FrameGen(pa))
	}
}

// TestScrubBumpsOnceWhenAlreadyZero: a scrub skips the stores of words
// that are already zero, but still counts as one write of every frame
// it covers, including an all-zero one, and clears the words that were
// not zero.
func TestScrubBumpsOnceWhenAlreadyZero(t *testing.T) {
	m := NewMemory(DefaultLayout())
	pa := m.RAMStart()

	m.ZeroPage(pa)
	if g := m.FrameGen(pa); g != 1 {
		t.Fatalf("ZeroPage of a zero frame: gen %d, want 1", g)
	}
	m.ZeroPage(pa)
	if g := m.FrameGen(pa); g != 2 {
		t.Fatalf("second ZeroPage of a zero frame: gen %d, want 2", g)
	}

	// A range from mid-frame across the boundary into the next frame:
	// one bump on each side, zero or not.
	next := pa + PageSize
	m.Write64(next+8, 0x55) // next: gen 1
	m.Write64(pa+PageSize-8, 0x66)
	g0 := m.FrameGen(pa)
	m.ZeroWords(pa+PageSize/2, PTEsPerTable)
	if g := m.FrameGen(pa); g != g0+1 {
		t.Fatalf("ZeroWords: first frame gen %d, want %d", g, g0+1)
	}
	if g := m.FrameGen(next); g != 2 {
		t.Fatalf("ZeroWords: second frame gen %d, want 2", g)
	}
	if m.Read64(pa+PageSize-8) != 0 || m.Read64(next+8) != 0 {
		t.Fatal("ZeroWords left a non-zero word in its range")
	}
	// The words past the range are untouched.
	m.Write64(next+PageSize/2, 0x77)
	m.ZeroWords(pa+PageSize/2, PTEsPerTable)
	if m.Read64(next+PageSize/2) != 0x77 {
		t.Fatal("ZeroWords cleared a word past its range")
	}
}

// TestScrubConcurrentReader: while a non-zero frame is scrubbed, a
// reader loading its words atomically sees each word either with its
// old value or zero, never anything else (run under -race: the skip of
// zero words must not turn a store into a plain one).
func TestScrubConcurrentReader(t *testing.T) {
	m := NewMemory(DefaultLayout())
	pa := m.RAMStart()
	old := func(i int) uint64 { return uint64(i)*0x0101_0101 + 1 }
	for round := 0; round < 50; round++ {
		for i := 0; i < PTEsPerTable; i += 2 { // odd words stay zero
			m.Write64(pa+PhysAddr(i*8), old(i))
		}
		started, done := make(chan struct{}), make(chan struct{})
		bad := make(chan string, 1)
		go func() {
			defer close(bad)
			close(started)
			for {
				for i := 0; i < PTEsPerTable; i++ {
					if w := m.Read64(pa + PhysAddr(i*8)); w != 0 && w != old(i) {
						bad <- "torn word"
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
		<-started
		if round%2 == 0 {
			m.ZeroPage(pa)
		} else {
			m.ZeroWords(pa, PTEsPerTable)
		}
		close(done)
		if msg, ok := <-bad; ok {
			t.Fatalf("round %d: reader saw a %s", round, msg)
		}
		for i := 0; i < PTEsPerTable; i++ {
			if w := m.Read64(pa + PhysAddr(i*8)); w != 0 {
				t.Fatalf("round %d: word %d = %#x after the scrub", round, i, w)
			}
		}
	}
}

// TestDiffBlocksReportsChangedWords: one pass reports exactly the
// indices whose word differs from the copy, each with the copy's old
// and the frame's new value, in index order, and leaves the copy equal
// to the frame; a second pass reports nothing. A block no store
// touched is not read, and diffing does not write the frame.
func TestDiffBlocksReportsChangedWords(t *testing.T) {
	m := NewMemory(DefaultLayout())
	pa := m.RAMStart()
	var copyF Frame
	for i := range copyF {
		copyF[i] = uint64(i) << 12
		m.Write64(pa+PhysAddr(i*8), uint64(i)<<12)
	}
	var gens [FrameBlocks]uint64
	m.BlockGens(pa, &gens)
	want := map[int][2]uint64{}
	for _, i := range []int{0, 1, 7, 255, 256, 511} {
		now := uint64(i)<<12 | 3
		if i == 7 {
			now = 0
		}
		m.Write64(pa+PhysAddr(i*8), now)
		want[i] = [2]uint64{uint64(i) << 12, now}
	}
	// A word of block 2 the copy does not know about: the block's
	// generation never moved, so the diff must not look at it.
	copyF[130] ^= 1
	gen := m.FrameGen(pa)

	got := map[int][2]uint64{}
	last := -1
	m.DiffBlocks(pa, &gens, &copyF, func(idx int, was, now PTE) {
		if idx <= last {
			t.Errorf("index %d reported after %d", idx, last)
		}
		last = idx
		got[idx] = [2]uint64{uint64(was), uint64(now)}
	})
	if len(got) != len(want) {
		t.Fatalf("reported %d indices %v, want %v", len(got), got, want)
	}
	for i, w := range want {
		if got[i] != w {
			t.Errorf("index %d: reported %#x, want %#x", i, got[i], w)
		}
	}
	copyF[130] ^= 1
	var live Frame
	m.ReadFrame(pa, &live)
	if live != copyF {
		t.Fatal("the copy differs from the frame after the diff")
	}
	m.DiffBlocks(pa, &gens, &copyF, func(idx int, _, _ PTE) { t.Errorf("second pass reported index %d", idx) })
	if g := m.FrameGen(pa); g != gen {
		t.Fatalf("diffing moved the frame's generation %d -> %d", gen, g)
	}
}

// fullDiff is the reference the block diff is held to: every word of
// the frame at pa compared with dst, changed words reported and
// stored.
func fullDiff(m *Memory, pa PhysAddr, dst *Frame) map[int][2]uint64 {
	out := map[int][2]uint64{}
	var live Frame
	m.ReadFrame(pa, &live)
	for i := range live {
		if live[i] != dst[i] {
			out[i] = [2]uint64{dst[i], live[i]}
			dst[i] = live[i]
		}
	}
	return out
}

// TestDiffBlocksMatchesFullDiff: over random stores through every
// store path (Write64, ZeroWords across frame boundaries, ZeroPage,
// and snapshot restores to the image and to a delta), diffing only the
// blocks whose generation moved reports exactly what a full-frame
// diff reports. Each frame keeps two copies, one per diff.
func TestDiffBlocksMatchesFullDiff(t *testing.T) {
	const nframes = 3
	m := NewMemory(testLayout())
	base := m.RAMStart()
	rng := rand.New(rand.NewPCG(1, 2))
	word := func() PhysAddr { return base + PhysAddr(rng.IntN(nframes*PTEsPerTable)*8) }
	for i := 0; i < 200; i++ {
		m.Write64(word(), rng.Uint64())
	}
	img := m.CaptureImage()
	bl, ok := img.NewBaseline(m)
	if !ok {
		t.Fatal("baseline over the captured memory must verify")
	}
	var (
		gens  [nframes][FrameBlocks]uint64
		block [nframes]Frame
		full  [nframes]Frame
	)
	for f := range nframes {
		pa := base + PhysAddr(f)*PageSize
		m.BlockGens(pa, &gens[f])
		m.ReadFrame(pa, &block[f])
		full[f] = block[f]
	}
	var delta *MemDelta
	for step := 0; step < 2000; step++ {
		switch op := rng.IntN(20); {
		case op < 12:
			pa := word()
			v := rng.Uint64()
			if op < 4 {
				v = m.Read64(pa) // a store of the value already there
			}
			m.Write64(pa, v)
		case op < 15:
			pa := word()
			n := 1 + rng.IntN(2*PTEsPerTable)
			if end := base + nframes*PageSize; pa+PhysAddr(n*8) > end {
				n = int(end-pa) / 8
			}
			m.ZeroWords(pa, n)
		case op < 16:
			m.ZeroPage(word())
		case op < 18:
			bl.Restore()
		case op < 19:
			delta = bl.CaptureDelta()
		default:
			bl.RestoreWith(delta)
		}
		for f := range nframes {
			pa := base + PhysAddr(f)*PageSize
			got := map[int][2]uint64{}
			m.DiffBlocks(pa, &gens[f], &block[f], func(idx int, was, now PTE) {
				got[idx] = [2]uint64{uint64(was), uint64(now)}
			})
			if want := fullDiff(m, pa, &full[f]); !maps.Equal(got, want) {
				t.Fatalf("step %d frame %d: block diff %v, full diff %v", step, f, got, want)
			}
		}
	}
}

// TestDiffBlocksConcurrentWriters: block diffs racing with writers on
// every store path never leave the copy behind for good. Once the
// writers stop, one more diff brings the copy level with the frame,
// because each writer bumps its block after its store (run under
// -race: the diff's loads must stay atomic).
func TestDiffBlocksConcurrentWriters(t *testing.T) {
	m := NewMemory(DefaultLayout())
	pa := m.RAMStart()
	var gens [FrameBlocks]uint64
	var copyF Frame
	m.BlockGens(pa, &gens)
	m.ReadFrame(pa, &copyF)
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for w := 0; w < 3; w++ {
			wg.Add(1)
			go func(seed uint64) {
				defer wg.Done()
				rng := rand.New(rand.NewPCG(seed, 7))
				for i := 0; i < 300; i++ {
					at := pa + PhysAddr(rng.IntN(PTEsPerTable)*8)
					switch rng.IntN(10) {
					case 0:
						m.ZeroWords(at, 1+rng.IntN(BlockWords))
					case 1:
						m.ZeroPage(pa)
					default:
						m.Write64(at, rng.Uint64()|1)
					}
				}
			}(uint64(round*3 + w))
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		for running := true; running; {
			select {
			case <-done:
				running = false
			default:
			}
			m.DiffBlocks(pa, &gens, &copyF, func(int, PTE, PTE) {})
		}
		m.DiffBlocks(pa, &gens, &copyF, func(int, PTE, PTE) {})
		var live Frame
		m.ReadFrame(pa, &live)
		if live != copyF {
			t.Fatalf("round %d: the copy differs from the quiescent frame", round)
		}
	}
}
