// Package syncdir shares one campaign across processes through a
// directory, the AFL -M/-S sync-directory design: no server, no
// leases, no wire envelopes — every worker owns a subdirectory, writes
// its files atomically, and polls its peers' subdirectories.
//
//	DIR/shape                          campaign shape, created once
//	DIR/findings/<hash>.trace          a finding's minimized trace, created once
//	DIR/findings/<hash>.txt            its repro block
//	DIR/seed-<N>/state.json            session counter + cumulative counters
//	DIR/seed-<N>/coverage.json         cumulative coverage.Delta
//	DIR/seed-<N>/corpus/<hash>-<score>.trace   novel corpus entries
//
// <hash> is randtest.TraceHash (randtest.DedupKey for findings) in 16
// hex digits, and every .trace file is plain randtest.EncodeTrace
// bytes, so randtest's codec is the only one. A worker owns the seed
// stream N of its campaign seed; session s of that stream runs
// campaign seed randtest.WorkerSeed(N, s), so a restart with the same
// seed resumes the stream where the killed session left it and
// re-injects the corpus that session wrote. Exclusive creation of a
// finding file is the dedup: when the file already exists, a peer (or
// an earlier session) found the same minimized bug first.
package syncdir

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"ghostspec/internal/campaign"
	"ghostspec/internal/coverage"
	"ghostspec/internal/randtest"
)

// shape is the campaign shape every worker of a directory shares, so
// any worker's trace replays on any other's build. The first worker
// writes it; a worker whose shape differs refuses to start.
type shape struct {
	Steps       int      `json:"steps"`
	CPUs        int      `json:"cpus"`
	Bugs        []string `json:"bugs"`
	BigMemory   bool     `json:"big_memory"`
	WireVersion int      `json:"trace_wire_version"`
}

// State is one worker's persisted record, cumulative over sessions.
type State struct {
	Sessions          int64 `json:"sessions"`
	Execs             int64 `json:"execs"`
	CorpusWritten     int64 `json:"corpus_written"`
	CorpusImported    int64 `json:"corpus_imported"`
	FindingsReported  int64 `json:"findings_reported"`
	FindingsDuplicate int64 `json:"findings_duplicate"`
}

// Worker is one process's membership in a sync directory.
type Worker struct {
	dir, own string
	logf     func(format string, args ...any)
	describe func(campaign.Finding) string

	mu        sync.Mutex
	st        State
	baseExecs int64
	baseCov   coverage.Delta
	seen      map[uint64]bool // corpus hashes written or injected
	handled   map[string]bool // corpus file paths already looked at
	eng       *campaign.Engine

	stop chan struct{}
	done chan struct{}
}

// Join makes cfg stream cfg.Seed of the directory: it checks or writes
// the shape, advances the stream's session counter, sets cfg.Seed to
// the session's campaign seed, and installs cfg.OnCorpus and
// cfg.OnFinding. describe renders a finding's repro block (nil: its
// minimized trace). Logf receives skip lines for unusable files.
func Join(dir string, cfg *campaign.Config, describe func(campaign.Finding) string,
	logf func(format string, args ...any)) (*Worker, error) {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	w := &Worker{
		dir:      dir,
		own:      filepath.Join(dir, fmt.Sprintf("seed-%d", cfg.Seed)),
		logf:     logf,
		describe: describe,
		seen:     map[uint64]bool{},
		handled:  map[string]bool{},
	}
	if err := os.MkdirAll(filepath.Join(w.own, "corpus"), 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(dir, "findings"), 0o755); err != nil {
		return nil, err
	}
	if err := checkShape(dir, cfg); err != nil {
		return nil, err
	}
	if err := readJSON(filepath.Join(w.own, "state.json"), &w.st); err != nil {
		logf("sync: starting %s afresh: %v", w.own, err)
		w.st = State{}
	}
	if err := readJSON(filepath.Join(w.own, "coverage.json"), &w.baseCov); err != nil {
		logf("sync: dropping %s coverage: %v", w.own, err)
		w.baseCov = coverage.Delta{}
	}
	session := int(w.st.Sessions)
	w.st.Sessions++
	w.baseExecs = w.st.Execs
	if err := writeJSON(filepath.Join(w.own, "state.json"), w.st); err != nil {
		return nil, err
	}
	cfg.Seed = randtest.WorkerSeed(cfg.Seed, session)
	cfg.OnCorpus = w.writeCorpus
	cfg.OnFinding = w.writeFinding
	return w, nil
}

// checkShape writes the directory's shape file if this is the first
// worker, and otherwise refuses a shape that differs from it.
func checkShape(dir string, cfg *campaign.Config) error {
	sh := shape{Steps: cfg.StepsPerRun, CPUs: cfg.NrCPUs, Bugs: []string{},
		BigMemory: cfg.BigMemory, WireVersion: randtest.TraceWireVersion}
	for _, b := range cfg.Bugs {
		sh.Bugs = append(sh.Bugs, string(b))
	}
	want, _ := json.Marshal(sh) // plain data: cannot fail
	path := filepath.Join(dir, "shape")
	if created, err := createExclusive(path, want); err != nil || created {
		return err
	}
	have, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if !bytes.Equal(bytes.TrimSpace(have), want) {
		return fmt.Errorf("sync: %s holds shape %s, this worker runs %s", path, have, want)
	}
	return nil
}

// Attach injects the directory's corpus — this stream's earlier
// sessions and every peer's — into the running engine, then polls the
// peers and rewrites this worker's coverage and state files every
// interval until Close.
func (w *Worker) Attach(eng *campaign.Engine, every time.Duration) {
	w.mu.Lock()
	w.eng = eng
	w.mu.Unlock()
	w.importCorpus()
	w.stop, w.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(w.done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			select {
			case <-w.stop:
				return
			case <-tick.C:
				w.importCorpus()
				if err := w.flush(); err != nil {
					w.logf("sync: %v", err)
				}
			}
		}
	}()
}

// Close stops polling and writes the final coverage and state files;
// it is a no-op for a worker that was never attached.
func (w *Worker) Close() error {
	if w.stop == nil {
		return nil
	}
	close(w.stop)
	<-w.done
	return w.flush()
}

// State returns the worker's cumulative counters.
func (w *Worker) State() State {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.st
}

// flush rewrites coverage.json and state.json from the engine.
func (w *Worker) flush() error {
	agg := coverage.NewAggregator()
	agg.AbsorbDelta(w.baseCov)
	agg.AbsorbDelta(w.eng.CoverageDelta())
	execs := w.eng.Status().Execs
	if err := writeJSON(filepath.Join(w.own, "coverage.json"), agg.Export()); err != nil {
		return err
	}
	w.mu.Lock()
	w.st.Execs = w.baseExecs + execs
	st := w.st
	w.mu.Unlock()
	return writeJSON(filepath.Join(w.own, "state.json"), st)
}

// importCorpus injects every corpus file whose trace hash is not seen
// yet: the peers' files and this stream's earlier sessions'. What this
// session wrote is seen already, so a worker never re-injects it.
func (w *Worker) importCorpus() {
	subdirs, _ := filepath.Glob(filepath.Join(w.dir, "seed-*")) // the pattern is valid
	for _, sub := range subdirs {
		// A peer that has not created its corpus directory yet is
		// read on a later poll.
		entries, _ := os.ReadDir(filepath.Join(sub, "corpus"))
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), ".") {
				continue // a write in progress
			}
			path := filepath.Join(sub, "corpus", e.Name())
			w.mu.Lock()
			fresh := !w.handled[path]
			w.handled[path] = true
			w.mu.Unlock()
			if fresh {
				w.importFile(path)
			}
		}
	}
}

func (w *Worker) importFile(path string) {
	hash, score, ok := parseCorpusName(filepath.Base(path))
	if !ok {
		w.logf("sync: skipping %s: not a <hash>-<score>.trace corpus file", path)
		return
	}
	tr, err := readTrace(path)
	if err != nil {
		w.logf("sync: skipping %s: %v", path, err)
		return
	}
	w.mu.Lock()
	known := w.seen[hash] // written or injected already under another name
	if !known {
		w.seen[hash] = true
		w.st.CorpusImported++
	}
	w.mu.Unlock()
	if !known {
		w.eng.InjectSeed(tr, score)
	}
}

func parseCorpusName(name string) (hash uint64, score float64, ok bool) {
	base, isTrace := strings.CutSuffix(name, ".trace")
	h, s, found := strings.Cut(base, "-")
	hash, herr := strconv.ParseUint(h, 16, 64)
	score, serr := strconv.ParseFloat(s, 64)
	return hash, score, isTrace && found && herr == nil && serr == nil && score > 0
}

// writeCorpus is the engine's OnCorpus hook.
func (w *Worker) writeCorpus(tr *randtest.Trace, score float64) {
	hash := randtest.TraceHash(tr)
	w.mu.Lock()
	known := w.seen[hash]
	w.seen[hash] = true
	w.mu.Unlock()
	if known {
		return
	}
	name := fmt.Sprintf("%016x-%g.trace", hash, score)
	if err := writeAtomic(filepath.Join(w.own, "corpus", name), randtest.EncodeTrace(tr)); err != nil {
		w.logf("sync: corpus entry lost: %v", err)
		return
	}
	w.mu.Lock()
	w.st.CorpusWritten++
	w.mu.Unlock()
}

// writeFinding is the engine's OnFinding hook: the first worker to
// create findings/<hash>.trace owns the finding; everyone after counts
// a duplicate.
func (w *Worker) writeFinding(f campaign.Finding) {
	key := randtest.DedupKey(f.Min, f.Trace)
	tr := f.Min
	if tr.Len() == 0 {
		tr = f.Trace
	}
	base := filepath.Join(w.dir, "findings", fmt.Sprintf("%016x", key))
	created, err := createExclusive(base+".trace", randtest.EncodeTrace(tr))
	if err != nil {
		w.logf("sync: finding lost: %v", err)
		return
	}
	if created {
		text := tr.String()
		if w.describe != nil {
			text = w.describe(f)
		}
		if err := writeAtomic(base+".txt", []byte(text)); err != nil {
			w.logf("sync: finding repro lost: %v", err)
		}
	}
	w.mu.Lock()
	w.st.FindingsReported++
	if !created {
		w.st.FindingsDuplicate++
	}
	w.mu.Unlock()
}

// Summary is the directory's merged view.
type Summary struct {
	Workers  map[string]State          // by subdirectory name
	Coverage map[string]coverage.Delta // each worker's coverage.json
	Merged   coverage.Delta            // AbsorbDelta of every worker's file
	Findings []string                  // finding hashes
}

// Summarize reads every worker's files; unreadable ones are skipped
// with a log line.
func Summarize(dir string, logf func(format string, args ...any)) Summary {
	s := Summary{Workers: map[string]State{}, Coverage: map[string]coverage.Delta{}}
	merged := coverage.NewAggregator()
	subdirs, _ := filepath.Glob(filepath.Join(dir, "seed-*")) // the pattern is valid
	for _, sub := range subdirs {
		name := filepath.Base(sub)
		var st State
		var cov coverage.Delta
		if err := readJSON(filepath.Join(sub, "state.json"), &st); err != nil {
			logf("sync: skipping %s state: %v", name, err)
		}
		if err := readJSON(filepath.Join(sub, "coverage.json"), &cov); err != nil {
			logf("sync: skipping %s coverage: %v", name, err)
		}
		s.Workers[name], s.Coverage[name] = st, cov
		merged.AbsorbDelta(cov)
	}
	s.Merged = merged.Export()
	traces, _ := filepath.Glob(filepath.Join(dir, "findings", "*.trace")) // the pattern is valid
	for _, p := range traces {
		s.Findings = append(s.Findings, strings.TrimSuffix(filepath.Base(p), ".trace"))
	}
	return s
}

// --- files ------------------------------------------------------------

func readTrace(path string) (*randtest.Trace, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return randtest.DecodeTrace(data)
}

// readJSON leaves v untouched when the file does not exist yet.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return writeAtomic(path, append(data, '\n'))
}

// writeTemp writes data to a dotfile beside path (pollers skip
// dotfiles) and returns its name.
func writeTemp(path string, data []byte) (string, error) {
	f, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return "", err
	}
	_, err = f.Write(data)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(f.Name())
		return "", err
	}
	return f.Name(), nil
}

// writeAtomic replaces path with data: readers see the old file or the
// new one, never a partial write.
func writeAtomic(path string, data []byte) error {
	tmp, err := writeTemp(path, data)
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// createExclusive creates path holding data unless it already exists —
// O_EXCL semantics, made atomic by hard-linking a complete temp file,
// so a reader never sees a half-written file. created reports whether
// this call made it.
func createExclusive(path string, data []byte) (created bool, err error) {
	tmp, err := writeTemp(path, data)
	if err != nil {
		return false, err
	}
	defer os.Remove(tmp)
	err = os.Link(tmp, path)
	if errors.Is(err, fs.ErrExist) {
		return false, nil
	}
	return err == nil, err
}
