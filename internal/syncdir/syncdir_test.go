package syncdir

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"ghostspec/internal/arch"
	"ghostspec/internal/campaign"
	"ghostspec/internal/faults"
	"ghostspec/internal/randtest"
)

func smallConfig(seed, execs int64, bugs ...faults.Bug) campaign.Config {
	return campaign.Config{Workers: 1, StepsPerRun: 120, Seed: seed, MaxExecs: execs,
		ShrinkReplays: 60, Bugs: bugs}
}

// logSink collects log lines from concurrent callers.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logSink) count(sub string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, line := range l.lines {
		if strings.Contains(line, sub) {
			n++
		}
	}
	return n
}

// runWorker joins dir as stream cfg.Seed, runs the campaign to its
// budget with polling on, and closes the worker.
func runWorker(dir string, cfg campaign.Config, logf func(string, ...any)) (*Worker, *campaign.Engine, error) {
	w, err := Join(dir, &cfg, nil, logf)
	if err != nil {
		return nil, nil, err
	}
	eng, err := campaign.Start(cfg)
	if err != nil {
		return nil, nil, err
	}
	w.Attach(eng, 20*time.Millisecond)
	_, err = eng.Wait()
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	return w, eng, err
}

func sampleTrace() *randtest.Trace {
	return &randtest.Trace{Ops: []randtest.Op{
		{Kind: randtest.OpAlloc, CPU: 1, PFN: arch.PFN(0x81000)},
		{Kind: randtest.OpShare, PFN: arch.PFN(0x81000)},
		{Kind: randtest.OpTouch, PFN: arch.PFN(0x81001), Write: true},
	}}
}

func corpusFiles(t *testing.T, dir string) []string {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "corpus", "*.trace"))
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// runPair runs two in-process workers, streams 1 and 2, to their
// budgets on one fresh directory and returns its summary.
func runPair(t *testing.T, execs int64, bugs ...faults.Bug) (string, Summary) {
	t.Helper()
	dir := t.TempDir()
	var wg sync.WaitGroup
	for seed := int64(1); seed <= 2; seed++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			if _, _, err := runWorker(dir, smallConfig(seed, execs, bugs...), t.Logf); err != nil {
				t.Error(err)
			}
		}(seed)
	}
	wg.Wait()
	sum := Summarize(dir, t.Errorf)
	if len(sum.Workers) != 2 {
		t.Fatalf("summary has %d workers, want 2", len(sum.Workers))
	}
	return dir, sum
}

// TestSyncSmoke runs two workers on one directory against the clean
// build: both count their execs, the merged coverage contains each
// worker's, and no finding file is written.
func TestSyncSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real engines")
	}
	_, sum := runPair(t, 12)
	for name, st := range sum.Workers {
		if st.Execs < 12 {
			t.Errorf("%s ran %d execs, want >= 12", name, st.Execs)
		}
		if !sum.Merged.SupersetOf(sum.Coverage[name]) || sum.Coverage[name].Keys() == 0 {
			t.Errorf("merged coverage does not contain %s's (%d keys)", name, sum.Coverage[name].Keys())
		}
	}
	if len(sum.Findings) != 0 {
		t.Errorf("clean build wrote finding files %v", sum.Findings)
	}
}

// TestSyncFindingDedup runs two workers on one directory against a
// fault-injected build: every reported finding is either the creator
// of a distinct findings/<hash>.trace or a counted duplicate, and each
// finding file holds the trace its name hashes.
func TestSyncFindingDedup(t *testing.T) {
	if testing.Short() {
		t.Skip("boots real engines")
	}
	dir, sum := runPair(t, 12, faults.BugUnshareLeaveMapping)
	var reported, duplicate int64
	for _, st := range sum.Workers {
		reported += st.FindingsReported
		duplicate += st.FindingsDuplicate
	}
	if len(sum.Findings) == 0 {
		t.Fatal("fault-injected pair wrote no finding files")
	}
	if duplicate == 0 {
		t.Errorf("%d reported findings collapsed to %d files with no duplicate", reported, len(sum.Findings))
	}
	if reported != int64(len(sum.Findings))+duplicate {
		t.Errorf("reported %d != %d unique + %d duplicate", reported, len(sum.Findings), duplicate)
	}
	for _, hash := range sum.Findings {
		tr, err := readTrace(filepath.Join(dir, "findings", hash+".trace"))
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%016x", randtest.TraceHash(tr)); got != hash {
			t.Errorf("finding file %s holds a trace hashing to %s", hash, got)
		}
		if _, err := os.Stat(filepath.Join(dir, "findings", hash+".txt")); err != nil {
			t.Errorf("finding %s has no repro text: %v", hash, err)
		}
	}
	t.Logf("%d reported -> %d unique (%d duplicate)", reported, len(sum.Findings), duplicate)
}

// TestSyncCorpusPeerInject pins the corpus exchange: a peer's corpus
// file is injected once, is never written back into the importer's
// own corpus, and a worker never re-imports what it wrote itself.
func TestSyncCorpusPeerInject(t *testing.T) {
	dir := t.TempDir()
	w, eng, err := runWorker(dir, smallConfig(1, 6), t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	own := corpusFiles(t, w.own)
	if len(own) == 0 || int64(len(own)) != w.State().CorpusWritten {
		t.Fatalf("worker wrote %d corpus files, counted %d", len(own), w.State().CorpusWritten)
	}
	if w.State().CorpusImported != 0 {
		t.Fatalf("worker imported %d of its own entries", w.State().CorpusImported)
	}

	peer := sampleTrace()
	name := fmt.Sprintf("%016x-2.5.trace", randtest.TraceHash(peer))
	if err := os.MkdirAll(filepath.Join(dir, "seed-9", "corpus"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seed-9", "corpus", name), randtest.EncodeTrace(peer), 0o644); err != nil {
		t.Fatal(err)
	}
	before := eng.Status().CorpusSize
	w.importCorpus()
	w.importCorpus()
	if got := w.State().CorpusImported; got != 1 {
		t.Errorf("imported %d entries after two polls, want 1", got)
	}
	if got := eng.Status().CorpusSize; got != before+1 {
		t.Errorf("corpus size %d -> %d, want one injected seed", before, got)
	}
	if after := corpusFiles(t, w.own); len(after) != len(own) {
		t.Errorf("own corpus went from %d to %d files: the peer entry was echoed", len(own), len(after))
	}
}

// TestSyncRestartResumesStream pins that a killed worker loses no seed
// stream: a restart with the same seed runs the stream's next session
// seed, re-injects the corpus the killed session wrote, and keeps its
// cumulative counters.
func TestSyncRestartResumesStream(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig(5, 6)
	killed, err := Join(dir, &cfg, nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if want := randtest.WorkerSeed(5, 0); cfg.Seed != want {
		t.Fatalf("session 0 seed %d, want %d", cfg.Seed, want)
	}
	// Run without Attach/Close: the process dies before any flush, so
	// only what the hooks wrote survives.
	if _, err := campaign.Run(cfg); err != nil {
		t.Fatal(err)
	}
	written := killed.State().CorpusWritten
	if written == 0 {
		t.Fatal("killed session wrote no corpus")
	}

	cfg = smallConfig(5, 6)
	w, err := Join(dir, &cfg, nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if want := randtest.WorkerSeed(5, 1); cfg.Seed != want {
		t.Errorf("restart seed %d, want session 1 seed %d", cfg.Seed, want)
	}
	eng, err := campaign.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	w.Attach(eng, time.Hour)
	if _, err := eng.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st := w.State()
	if st.Sessions != 2 {
		t.Errorf("session counter %d, want 2", st.Sessions)
	}
	if st.CorpusImported != written {
		t.Errorf("restart re-injected %d of the killed session's %d entries", st.CorpusImported, written)
	}
	if st.Execs < 6 {
		t.Errorf("restarted stream counts %d execs, want >= 6", st.Execs)
	}

	// A third session carries the second's counters forward.
	cfg = smallConfig(5, 6)
	third, err := Join(dir, &cfg, nil, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	if got := third.State(); got.Sessions != 3 || got.Execs != st.Execs {
		t.Errorf("third session state %+v, want sessions 3 and %d execs", got, st.Execs)
	}
}

// TestSyncShapeMismatch pins that a worker whose campaign shape (or
// trace wire version) differs from the directory's refuses to start.
func TestSyncShapeMismatch(t *testing.T) {
	dir := t.TempDir()
	cfg := smallConfig(1, 1)
	if _, err := Join(dir, &cfg, nil, t.Logf); err != nil {
		t.Fatal(err)
	}
	same := smallConfig(2, 1)
	if _, err := Join(dir, &same, nil, t.Logf); err != nil {
		t.Fatalf("same-shape worker refused: %v", err)
	}
	for name, mutate := range map[string]func(*campaign.Config){
		"steps": func(c *campaign.Config) { c.StepsPerRun = 121 },
		"cpus":  func(c *campaign.Config) { c.NrCPUs = 2 },
		"bugs":  func(c *campaign.Config) { c.Bugs = []faults.Bug{faults.BugUnshareLeaveMapping} },
		"mem":   func(c *campaign.Config) { c.BigMemory = true },
	} {
		other := smallConfig(3, 1)
		mutate(&other)
		if _, err := Join(dir, &other, nil, t.Logf); err == nil || !strings.Contains(err.Error(), "shape") {
			t.Errorf("%s mismatch: err = %v, want a shape refusal", name, err)
		}
	}

	skewed := t.TempDir()
	shape := fmt.Sprintf(`{"steps":120,"cpus":0,"bugs":[],"big_memory":false,"trace_wire_version":%d}`,
		randtest.TraceWireVersion+1)
	if err := os.WriteFile(filepath.Join(skewed, "shape"), []byte(shape), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg = smallConfig(1, 1)
	if _, err := Join(skewed, &cfg, nil, t.Logf); err == nil {
		t.Error("worker joined a directory written by another trace wire version")
	}
}

// TestSyncSkipsBadFiles pins that truncated and foreign files in the
// directory are skipped with a log line, never a crash or an injection.
func TestSyncSkipsBadFiles(t *testing.T) {
	dir := t.TempDir()
	peer := filepath.Join(dir, "seed-7")
	if err := os.MkdirAll(filepath.Join(peer, "corpus"), 0o755); err != nil {
		t.Fatal(err)
	}
	blob := randtest.EncodeTrace(sampleTrace())
	files := map[string][]byte{
		"corpus/00000000000000a1-1.trace": blob[:len(blob)-2], // truncated
		"corpus/00000000000000a2-1.trace": []byte("not a trace"),
		"corpus/README":                   []byte("foreign"),
		"corpus/zz-1.trace":               blob, // unparseable hash
		"coverage.json":                   []byte(`{"outcomes":[`),
		"state.json":                      []byte(`{"sessions":`),
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(peer, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	log := &logSink{}
	cfg := smallConfig(1, 1)
	w, err := Join(dir, &cfg, nil, log.logf)
	if err != nil {
		t.Fatal(err)
	}
	// Own state and coverage files corrupt too: the worker starts the
	// stream afresh instead of refusing.
	for _, name := range []string{"state.json", "coverage.json"} {
		if err := os.WriteFile(filepath.Join(w.own, name), []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg = smallConfig(1, 1)
	w, err = Join(dir, &cfg, nil, log.logf)
	if err != nil {
		t.Fatalf("corrupt own state refused the restart: %v", err)
	}
	if log.count("afresh") != 1 || log.count("dropping") != 1 {
		t.Errorf("corrupt own files not logged: %q", log.lines)
	}

	w.importCorpus() // the engine is never touched: nothing is injectable
	w.importCorpus()
	if got := log.count("skipping " + filepath.Join(peer, "corpus")); got != 4 {
		t.Errorf("logged %d skipped corpus files, want 4 (each once): %q", got, log.lines)
	}
	if w.State().CorpusImported != 0 {
		t.Errorf("imported %d bad files", w.State().CorpusImported)
	}

	sum := Summarize(dir, log.logf)
	if log.count("skipping seed-7") != 2 {
		t.Errorf("bad peer state/coverage not logged: %q", log.lines)
	}
	if len(sum.Workers) != 2 {
		t.Errorf("summary has %d workers, want 2", len(sum.Workers))
	}
}

// TestSyncSkipsVersionSkew pins that a peer's corpus file written by
// another trace wire version is skipped with a log line naming the
// version, once, and is never injected.
func TestSyncSkipsVersionSkew(t *testing.T) {
	dir := t.TempDir()
	peer := filepath.Join(dir, "seed-7")
	if err := os.MkdirAll(filepath.Join(peer, "corpus"), 0o755); err != nil {
		t.Fatal(err)
	}
	skew := randtest.EncodeTrace(sampleTrace())
	skew[4] = randtest.TraceWireVersion + 1
	if err := os.WriteFile(filepath.Join(peer, "corpus", "00000000000000a3-1.trace"), skew, 0o644); err != nil {
		t.Fatal(err)
	}

	log := &logSink{}
	cfg := smallConfig(1, 1)
	w, err := Join(dir, &cfg, nil, log.logf)
	if err != nil {
		t.Fatal(err)
	}
	w.importCorpus()
	w.importCorpus()
	if got := log.count("skipping " + filepath.Join(peer, "corpus")); got != 1 {
		t.Errorf("logged %d skipped corpus files, want 1: %q", got, log.lines)
	}
	if log.count("version") != 1 {
		t.Errorf("version skew not named in the log: %q", log.lines)
	}
	if w.State().CorpusImported != 0 {
		t.Errorf("imported %d version-skewed files", w.State().CorpusImported)
	}
}
