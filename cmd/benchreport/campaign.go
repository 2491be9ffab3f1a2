package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"ghostspec/internal/campaign"
	"ghostspec/internal/coverage"
)

// The campaign-bench mode measures the parallel campaign engine:
// identical exec budgets run serially (1 worker) and sharded (8
// workers) with copy-on-write snapshots on, plus a serial leg with
// snapshots off (fresh boot + full parent replay per exec — the old
// execution model, kept as the ablation baseline). The throughputs
// land in a JSON artifact next to the ghost-bench numbers.
//
// Two gates make this a regression test rather than a report:
//
//   - the snapshot speedup (serial snap-on / serial snap-off) must
//     clear snapshotSpeedupFloor, or Pass=false and the run exits
//     non-zero — the CoW machinery earning less than the floor means
//     restores got expensive or forks stopped landing;
//   - the snapshot legs run with the conformance differ enabled
//     (every conformanceEvery-th exec is diffed against a freshly
//     booted and replayed reference), so a restore that diverges from
//     ground truth fails the benchmark outright instead of producing
//     fast-but-wrong numbers.
//
// The parallel speedup is only meaningful on a machine with cores to
// spare — num_cpu/gomaxprocs are recorded so a CI runner's number is
// never misread against a laptop's.

const (
	// snapshotSpeedupFloor gates serial snap-on vs snap-off throughput.
	// Measured 1.45-1.55x on a 1-CPU CI box — the ablation baseline
	// shares every oracle optimisation, so this ratio isolates just the
	// boot+replay cost snapshots remove, not the full win over the
	// pre-snapshot engine (2.2x; see PERFORMANCE.md). The floor leaves
	// noise headroom (loaded runners have measured as low as 1.21x)
	// while still catching a machinery regression that forfeits the
	// win.
	snapshotSpeedupFloor = 1.2

	// conformanceEvery is the differ cadence for the benchmark legs:
	// frequent enough that every leg cross-checks several restores,
	// cheap enough not to dominate the timing.
	conformanceEvery = 32
)

type campaignLeg struct {
	Workers int `json:"workers"`
	// Gomaxprocs is recorded per leg, not just once per report: the
	// parallel legs are only meaningful relative to the scheduler
	// parallelism they actually ran under.
	Gomaxprocs int `json:"gomaxprocs"`
	// NumVCPU is the virtual-CPU count of every system the leg boots —
	// the real configured value (campaign.Config.NrCPUs), which used to
	// be invisible here and silently reported as a single-CPU machine.
	NumVCPU     int     `json:"num_vcpu"`
	SchedFuzz   bool    `json:"sched_fuzz"`
	Snapshots   bool    `json:"snapshots"`
	Execs       int64   `json:"execs"`
	ElapsedMS   float64 `json:"elapsed_ms"`
	ExecsPerSec float64 `json:"execs_per_sec"`
	NovelRuns   int64   `json:"novel_runs"`
	CorpusSize  int     `json:"corpus_size"`
	Findings    int     `json:"findings"`
	// Snapshot accounting (zero on the snap-off leg): restores, corpus
	// forks that skipped replay, frames rewritten, and full-replay
	// fallbacks.
	SnapshotRestores    int64 `json:"snapshot_restores"`
	SnapshotParentHits  int64 `json:"snapshot_parent_hits"`
	SnapshotDirtyFrames int64 `json:"snapshot_dirty_frames"`
	SnapshotFallbacks   int64 `json:"snapshot_fallback_full"`
}

type campaignBenchReport struct {
	GOOS        string      `json:"goos"`
	GOARCH      string      `json:"goarch"`
	NumCPU      int         `json:"num_cpu"`
	GOMAXPROCS  int         `json:"gomaxprocs"`
	StepsPerRun int         `json:"steps_per_run"`
	Serial      campaignLeg `json:"serial"`
	Parallel    campaignLeg `json:"parallel_8"`
	SerialOff   campaignLeg `json:"serial_nosnap"`
	// Parallel2CPU is the multi-vCPU leg: two workers, two-vCPU
	// systems, schedule fuzzing on — every clean serial exec re-runs
	// under a seeded deterministic schedule, so its throughput prices
	// the scheduler (sched_preemptions, parked time) against the
	// serial legs. Ungated: it exists to be read, not raced.
	Parallel2CPU campaignLeg `json:"parallel_2cpu"`
	// Speedup is parallel vs serial (both snap-on) — only computed when
	// the runtime can actually schedule the legs in parallel. On a
	// GOMAXPROCS=1 box the ratio would measure goroutine-switch
	// contention, not scaling, so it is omitted and
	// SpeedupSkippedReason says why. SnapshotSpeedup is serial snap-on
	// vs serial snap-off and is gated by SpeedupFloor.
	Speedup              float64 `json:"speedup,omitempty"`
	SpeedupSkippedReason string  `json:"speedup_skipped_reason,omitempty"`
	SnapshotSpeedup      float64 `json:"snapshot_speedup"`
	SpeedupFloor         float64 `json:"snapshot_speedup_floor"`
	// Sync is the multi-process leg: two workers sharing a sync
	// directory, gated on coordination overhead.
	Sync *syncBench `json:"sync,omitempty"`
	Pass bool       `json:"pass"`
}

func runCampaignBench(path string, execs int64) error {
	fmt.Println("==================== campaign benchmark ====================")
	report := campaignBenchReport{
		GOOS:         runtime.GOOS,
		GOARCH:       runtime.GOARCH,
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		StepsPerRun:  300,
		SpeedupFloor: snapshotSpeedupFloor,
	}

	leg := func(workers int, noSnapshot bool, nrCPUs int, schedFuzz bool) (campaignLeg, error) {
		rep, err := campaign.Run(campaign.Config{
			Workers:          workers,
			StepsPerRun:      report.StepsPerRun,
			Seed:             1,
			MaxExecs:         execs,
			NoSnapshot:       noSnapshot,
			ConformanceEvery: conformanceEvery,
			NrCPUs:           nrCPUs,
			SchedFuzz:        schedFuzz,
		})
		if err != nil {
			// Includes snapshot conformance divergence — a correctness
			// failure of the fork machinery, fatal to the benchmark.
			return campaignLeg{}, err
		}
		if len(rep.Findings) > 0 {
			return campaignLeg{}, fmt.Errorf("clean build produced findings: %v",
				rep.Findings[0].Failures[0])
		}
		l := campaignLeg{
			Workers:             workers,
			Gomaxprocs:          runtime.GOMAXPROCS(0),
			NumVCPU:             nrCPUs,
			SchedFuzz:           schedFuzz,
			Snapshots:           !noSnapshot,
			Execs:               rep.Execs,
			ElapsedMS:           float64(rep.Elapsed) / float64(time.Millisecond),
			ExecsPerSec:         rep.ExecsPerSec,
			NovelRuns:           rep.NovelRuns,
			CorpusSize:          rep.CorpusSize,
			Findings:            len(rep.Findings),
			SnapshotRestores:    rep.SnapshotRestores,
			SnapshotParentHits:  rep.SnapshotParentHits,
			SnapshotDirtyFrames: rep.SnapshotDirtyFrames,
			SnapshotFallbacks:   rep.SnapshotFallbacks,
		}
		mode := "snapshots"
		if noSnapshot {
			mode = "fresh boots"
		}
		if schedFuzz {
			mode += ", sched-fuzz"
		}
		fmt.Printf("  %d worker(s), %d vCPUs, %s: %d execs in %v = %.1f execs/s (spec coverage %.1f%%)\n",
			workers, nrCPUs, mode, rep.Execs, rep.Elapsed.Round(time.Millisecond), rep.ExecsPerSec,
			coverage.Percent(rep.Coverage.SpecCovered, rep.Coverage.SpecTotal))
		if !noSnapshot {
			fmt.Printf("    restores=%d parent-forks=%d dirty-frames=%d fallbacks=%d\n",
				l.SnapshotRestores, l.SnapshotParentHits, l.SnapshotDirtyFrames, l.SnapshotFallbacks)
		}
		return l, nil
	}

	var err error
	if report.Serial, err = leg(1, false, 4, false); err != nil {
		return err
	}
	if report.Parallel, err = leg(8, false, 4, false); err != nil {
		return err
	}
	if report.SerialOff, err = leg(1, true, 4, false); err != nil {
		return err
	}
	if report.Parallel2CPU, err = leg(2, false, 2, true); err != nil {
		return err
	}
	if report.GOMAXPROCS <= 1 {
		report.SpeedupSkippedReason = "gomaxprocs=1: parallel and serial legs share one OS " +
			"thread, so parallel-vs-serial would measure scheduler contention, not scaling"
		fmt.Printf("  speedup 8w/1w: skipped (%s)\n", report.SpeedupSkippedReason)
	} else if report.Serial.ExecsPerSec > 0 {
		report.Speedup = report.Parallel.ExecsPerSec / report.Serial.ExecsPerSec
		fmt.Printf("  speedup 8w/1w: %.2fx on %d CPUs (GOMAXPROCS %d)\n",
			report.Speedup, report.NumCPU, report.GOMAXPROCS)
	}
	if report.SerialOff.ExecsPerSec > 0 {
		report.SnapshotSpeedup = report.Serial.ExecsPerSec / report.SerialOff.ExecsPerSec
	}
	report.Pass = report.SnapshotSpeedup >= snapshotSpeedupFloor
	fmt.Printf("  snapshot speedup (serial on/off): %.2fx (floor %.2fx)\n",
		report.SnapshotSpeedup, snapshotSpeedupFloor)

	syncRep, err := runSyncBench(execs)
	if err != nil {
		return err
	}
	report.Sync = syncRep
	report.Pass = report.Pass && syncRep.Pass

	data, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("  wrote %s\n", path)
	if report.SnapshotSpeedup < snapshotSpeedupFloor {
		return fmt.Errorf("snapshot speedup %.2fx below floor %.2fx",
			report.SnapshotSpeedup, snapshotSpeedupFloor)
	}
	if !report.Pass {
		return fmt.Errorf("sync leg failed its gates (see %s)", path)
	}
	return nil
}
