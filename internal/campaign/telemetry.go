package campaign

import "ghostspec/internal/telemetry"

// Campaign telemetry, registered once at package init like every other
// instrumented subsystem (the telemetrycheck analyzer enforces this).
// The counters are process-global: concurrent engines (e.g. the serial
// and parallel legs of the benchmark) share them, which is the same
// convention the hypervisor's own counters follow.
var (
	// telExecs counts completed executions (one boot + one generator
	// run); telExecRate is the derived execs/sec gauge fed by a Meter.
	telExecs    = telemetry.NewCounter("campaign_execs_total")
	telExecRate = telemetry.NewGauge("campaign_execs_per_sec")

	// telNovel counts runs whose coverage added novelty to the merged
	// aggregate (and therefore entered the corpus).
	telNovel      = telemetry.NewCounter("campaign_novel_runs_total")
	telCorpusSize = telemetry.NewGauge("campaign_corpus_size")

	// telFindings counts oracle failures the engine turned into
	// findings; telShrinkReplays counts delta-debugging replays spent
	// minimizing them.
	telFindings      = telemetry.NewCounter("campaign_findings_total")
	telShrinkReplays = telemetry.NewCounter("campaign_shrink_replays_total")

	// Snapshot machinery: restores performed (base rewinds and corpus
	// forks alike), total dirty frames those restores rewrote, and
	// fallbacks to a full boot+replay when a corpus parent carried no
	// snapshot.
	telSnapRestores = telemetry.NewCounter("snapshot_restores")
	telSnapDirty    = telemetry.NewCounter("snapshot_dirty_frames")
	telSnapFallback = telemetry.NewCounter("snapshot_fallback_full")
	// telSnapBackfill counts end-state snapshots captured for corpus
	// entries that arrived without one (injected seeds): each
	// backfill turns every future fork of that entry from a full replay
	// into a snapshot restore.
	telSnapBackfill = telemetry.NewCounter("snapshot_backfills")
)
