package main

import (
	"cmp"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"ghostspec/internal/campaign"
	"ghostspec/internal/faults"
	"ghostspec/internal/randtest"
	"ghostspec/internal/syncdir"
)

// The sync leg of the campaign benchmark prices the multi-process
// campaign machinery: two single-threaded workers share one sync
// directory exactly as two `ghost-fuzz -sync-dir` processes would
// (corpus files written and polled, finding files created
// exclusively, coverage files rewritten), so the numbers include every
// file the directory design costs.
//
// The gate is coordination overhead, not parallel speedup. The
// baseline is two standalone campaign engines running concurrently in
// this same process — identical CPU contention, zero coordination —
// on the campaign seeds the sync workers get, so both pairs generate
// the same executions but for the corpus the directory shares. The
// two-worker sync leg's summed throughput must reach
// syncEfficiencyFloor of the baseline's. Both sides use the same
// estimator, the sum of each engine's execs over its own run time:
// the sync directory's cost (file writes, polls, peer imports) lands
// inside each engine's run, while the set-up and tear-down around the
// engines (syncdir.Join, Close, the slower engine's tail) is outside
// every engine's run on both sides alike. A leg lasts under a second,
// so one pair of legs moves ±10% with the machine; the gate takes the
// median ratio of syncRounds pairs, alternating which leg runs first.
//
// A separate demo leg runs the pair against a build with an injected
// fault (unshare leaves the hyp mapping behind) so the report records
// finding dedup in action: every worker minimizes its own repro, and
// exclusive creation of findings/<hash>.trace collapses canonically
// equal ones. The leg gates that at least one unique finding survived
// and that reported = unique + duplicate.

const (
	// syncEfficiencyFloor gates the sync pair's summed throughput
	// against two coordination-free engines under the same contention.
	syncEfficiencyFloor = 0.9

	// syncRounds is the number of sync/standalone leg pairs whose
	// median efficiency is gated.
	syncRounds = 5

	// syncPoll is faster than ghost-fuzz's 1s poll so that short legs
	// still import peer corpus and rewrite coverage several times;
	// otherwise the measured overhead would be zero by construction.
	syncPoll = 100 * time.Millisecond

	// syncDedupBug is the fault injected for the dedup demo leg.
	syncDedupBug = faults.BugUnshareLeaveMapping
)

// pairLeg is two single-threaded engines run concurrently, either
// sharing a sync directory or, as the baseline, sharing nothing.
type pairLeg struct {
	Execs     int64   `json:"execs"`
	ElapsedMS float64 `json:"elapsed_ms"`
	// ExecsPerSec is total execs over the pair's wall time, set-up
	// and tear-down included (reported, not gated); SummedExecsPerSec
	// is the sum of each engine's own rate, the gated estimator.
	ExecsPerSec       float64 `json:"execs_per_sec"`
	SummedExecsPerSec float64 `json:"summed_execs_per_sec"`
	// The sync directory's merged view and counters (sync legs only).
	MergedCoverageKeys int   `json:"merged_coverage_keys,omitempty"`
	CorpusWritten      int64 `json:"corpus_written,omitempty"`
	CorpusImported     int64 `json:"corpus_imported,omitempty"`
	FindingsReported   int64 `json:"findings_reported,omitempty"`
	FindingsDuplicate  int64 `json:"findings_duplicate,omitempty"`
	FindingsUnique     int   `json:"findings_unique,omitempty"`
}

type syncBench struct {
	PollMS   int64   `json:"poll_ms"`
	Sync2    pairLeg `json:"sync_2"`
	Baseline pairLeg `json:"standalone_pair"`
	// CoordinationEfficiency is sync_2's summed throughput over the
	// standalone pair's, gated by EfficiencyFloor: the median of the
	// Rounds, whose legs Sync2 and Baseline are.
	CoordinationEfficiency float64   `json:"coordination_efficiency"`
	Rounds                 []float64 `json:"efficiency_rounds"`
	EfficiencyFloor        float64   `json:"coordination_efficiency_floor"`
	// Dedup is the injected-fault demo leg; DedupBug names the fault.
	Dedup    pairLeg `json:"dedup_demo"`
	DedupBug string  `json:"dedup_bug"`
	Pass     bool    `json:"pass"`
}

// runPair runs two single-threaded engines concurrently, splitting an
// exec budget. Synced, they are sync-directory streams 1 and 2 of a
// fresh directory, which is read back afterwards; otherwise they are
// standalone engines on the seeds those streams start with.
func runPair(totalExecs int64, bugs []faults.Bug, synced bool) (pairLeg, error) {
	var dir string
	if synced {
		var err error
		if dir, err = os.MkdirTemp("", "benchreport-sync-*"); err != nil {
			return pairLeg{}, err
		}
		defer os.RemoveAll(dir)
	}
	reps := make([]*campaign.Report, 2)
	errs := make([]error, 2)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range reps {
		cfg := campaign.Config{Workers: 1, StepsPerRun: 300, Seed: randtest.WorkerSeed(int64(i+1), 0), NrCPUs: campaignVCPUs,
			Bugs: bugs, MaxExecs: totalExecs / 2}
		var sw *syncdir.Worker
		if synced {
			cfg.Seed = int64(i + 1) // Join makes it WorkerSeed(i+1, 0)
			var err error
			if sw, err = syncdir.Join(dir, &cfg, nil, nil); err != nil {
				return pairLeg{}, err
			}
		}
		eng, err := campaign.Start(cfg)
		if err != nil {
			return pairLeg{}, err
		}
		if sw != nil {
			sw.Attach(eng, syncPoll)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reps[i], errs[i] = eng.Wait()
			if sw != nil {
				if cerr := sw.Close(); errs[i] == nil {
					errs[i] = cerr
				}
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	leg := pairLeg{ElapsedMS: float64(elapsed) / float64(time.Millisecond)}
	for i, rep := range reps {
		if errs[i] != nil {
			return pairLeg{}, fmt.Errorf("engine %d: %w", i, errs[i])
		}
		leg.Execs += rep.Execs
		leg.SummedExecsPerSec += rep.ExecsPerSec
	}
	leg.ExecsPerSec = float64(leg.Execs) / elapsed.Seconds()
	if !synced {
		fmt.Printf("  standalone pair: %d execs, %.1f execs/s summed\n", leg.Execs, leg.SummedExecsPerSec)
		return leg, nil
	}

	sum := syncdir.Summarize(dir, func(format string, args ...any) {
		fmt.Printf("    "+format+"\n", args...)
	})
	leg.MergedCoverageKeys, leg.FindingsUnique = sum.Merged.Keys(), len(sum.Findings)
	for name, st := range sum.Workers {
		// The merged coverage must contain every worker's own view —
		// the correctness side of the merge this leg is timing.
		if !sum.Merged.SupersetOf(sum.Coverage[name]) {
			return pairLeg{}, fmt.Errorf("merged coverage is not a superset of %s's", name)
		}
		leg.CorpusWritten += st.CorpusWritten
		leg.CorpusImported += st.CorpusImported
		leg.FindingsReported += st.FindingsReported
		leg.FindingsDuplicate += st.FindingsDuplicate
	}
	fmt.Printf("  sync pair: %d execs in %v, %.1f execs/s summed (%.1f over the wall) "+
		"(corpus written %d/imported %d, merged keys %d)\n",
		leg.Execs, elapsed.Round(time.Millisecond), leg.SummedExecsPerSec, leg.ExecsPerSec,
		leg.CorpusWritten, leg.CorpusImported, leg.MergedCoverageKeys)
	return leg, nil
}

func runSyncBench() (*syncBench, error) {
	fmt.Println("  -- sync directory --")
	rep := &syncBench{
		PollMS:          int64(syncPoll / time.Millisecond),
		EfficiencyFloor: syncEfficiencyFloor,
		DedupBug:        string(syncDedupBug),
	}
	type round struct{ sync, base pairLeg }
	rounds := make([]round, syncRounds)
	for r := range rounds {
		for _, synced := range []bool{r%2 == 0, r%2 != 0} { // sync first in even rounds
			leg, err := runPair(campaignExecs, nil, synced)
			if err != nil {
				return nil, err
			}
			if synced {
				rounds[r].sync = leg
			} else {
				rounds[r].base = leg
			}
		}
	}
	eff := func(r round) float64 {
		if r.base.SummedExecsPerSec == 0 {
			return 0
		}
		return r.sync.SummedExecsPerSec / r.base.SummedExecsPerSec
	}
	for _, r := range rounds {
		rep.Rounds = append(rep.Rounds, eff(r))
	}
	slices.SortFunc(rounds, func(a, b round) int { return cmp.Compare(eff(a), eff(b)) })
	mid := rounds[len(rounds)/2]
	rep.Sync2, rep.Baseline, rep.CoordinationEfficiency = mid.sync, mid.base, eff(mid)
	fmt.Printf("  coordination efficiency (sync_2 / standalone pair): %.2f, median of %.2f (floor %.2f)\n",
		rep.CoordinationEfficiency, rep.Rounds, syncEfficiencyFloor)

	// Dedup demo: same pair, fault injected. The gate is the dedup
	// invariant, not the duplicate count — whether two seed streams
	// minimize to the same canonical trace within a small budget is
	// luck; when they do, the collapse shows in the duplicate count.
	var err error
	if rep.Dedup, err = runPair(campaignExecs, []faults.Bug{syncDedupBug}, true); err != nil {
		return nil, err
	}
	fmt.Printf("  dedup demo (%s): %d reported, %d duplicate, %d unique\n",
		rep.DedupBug, rep.Dedup.FindingsReported, rep.Dedup.FindingsDuplicate,
		rep.Dedup.FindingsUnique)
	if rep.Dedup.FindingsUnique == 0 {
		return nil, fmt.Errorf("dedup demo found nothing with %v injected", syncDedupBug)
	}
	if int64(rep.Dedup.FindingsUnique)+rep.Dedup.FindingsDuplicate != rep.Dedup.FindingsReported {
		return nil, fmt.Errorf("dedup accounting broken: %d unique + %d duplicate != %d reported",
			rep.Dedup.FindingsUnique, rep.Dedup.FindingsDuplicate, rep.Dedup.FindingsReported)
	}

	rep.Pass = rep.CoordinationEfficiency >= syncEfficiencyFloor
	if !rep.Pass {
		fmt.Printf("  FAIL: coordination efficiency %.2f below floor %.2f\n",
			rep.CoordinationEfficiency, syncEfficiencyFloor)
	}
	return rep, nil
}
