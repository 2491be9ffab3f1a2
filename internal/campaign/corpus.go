package campaign

import (
	"math/rand"
	"sync"

	"ghostspec/internal/randtest"
)

// corpus is the shared seed pool of a campaign. A run's trace enters
// when its coverage added novelty to the merged aggregate; its score
// (novelty plus rarity of the outcomes it hit) weights how often the
// mutation stage picks it back up, so the campaign keeps re-visiting
// the neighbourhoods of runs that reached rare outcomes instead of
// re-rolling the common paths.
type corpus struct {
	mu      sync.Mutex
	entries []corpusEntry
	total   float64 // sum of scores, for weighted pick
	cap     int
}

type corpusEntry struct {
	trace *randtest.Trace
	score float64
	snap  *parentSnap // end-state snapshot; nil forces replay on fork
}

func newCorpus(cap int) *corpus {
	return &corpus{cap: cap}
}

// add inserts a trace; when full, the lowest-scoring entry is evicted
// (which may be the newcomer).
func (c *corpus) add(tr *randtest.Trace, score float64, snap *parentSnap) {
	if score <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = append(c.entries, corpusEntry{trace: tr, score: score, snap: snap})
	c.total += score
	if len(c.entries) > c.cap {
		low := 0
		for i, e := range c.entries {
			if e.score < c.entries[low].score {
				low = i
			}
		}
		c.total -= c.entries[low].score
		c.entries[low] = c.entries[len(c.entries)-1]
		c.entries = c.entries[:len(c.entries)-1]
	}
}

// backfill attaches an end-state snapshot to a snapshot-less entry
// (matched by trace identity). Injected seeds arrive without one; the
// first fork of such an entry pays the full replay, captures the state
// it just rebuilt, and hands it here so every later fork restores
// instead. Racing workers may both replay and capture — the first
// capture wins, the loser's is dropped. A miss (entry evicted since
// the pick) is fine: the snapshot just dies with it.
func (c *corpus) backfill(tr *randtest.Trace, snap *parentSnap) {
	if snap == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.entries {
		if c.entries[i].trace == tr {
			if c.entries[i].snap == nil {
				c.entries[i].snap = snap
			}
			return
		}
	}
}

// pick draws an entry with probability proportional to its score.
// The caller supplies its own rng so per-worker determinism holds.
func (c *corpus) pick(rng *rand.Rand) (*randtest.Trace, *parentSnap, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) == 0 || c.total <= 0 {
		return nil, nil, false
	}
	r := rng.Float64() * c.total
	for _, e := range c.entries {
		r -= e.score
		if r < 0 {
			return e.trace, e.snap, true
		}
	}
	last := c.entries[len(c.entries)-1]
	return last.trace, last.snap, true
}

// size returns the current entry count.
func (c *corpus) size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
