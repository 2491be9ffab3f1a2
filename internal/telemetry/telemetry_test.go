package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("c_total") != c {
		t.Error("re-registration returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("gauge = %d, want 7", g.Value())
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_ns")
	// 90 small observations and 10 large: p50 must land in the small
	// range, p99 in the large.
	for i := 0; i < 90; i++ {
		h.Observe(100) // bucket 7 (64..127)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100000) // bucket 17
	}
	s := r.Snapshot()
	hs, ok := s.Histogram("lat_ns")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	if hs.Count != 100 || hs.Sum != 90*100+10*100000 {
		t.Errorf("count=%d sum=%d", hs.Count, hs.Sum)
	}
	if p50 := hs.Quantile(0.5); p50 != 127 {
		t.Errorf("p50 = %d, want 127", p50)
	}
	if p99 := hs.Quantile(0.99); p99 != 131071 {
		t.Errorf("p99 = %d, want 131071", p99)
	}
	if hs.Quantile(1.0) != 131071 {
		t.Errorf("p100 = %d", hs.Quantile(1.0))
	}
	if m := hs.Mean(); m < 100 || m > 100000 {
		t.Errorf("mean = %v out of range", m)
	}
}

func TestHistogramZeroAndEmpty(t *testing.T) {
	var empty HistSnap
	if empty.Quantile(0.5) != 0 || empty.Mean() != 0 {
		t.Error("empty histogram should quantile/mean to 0")
	}
	r := NewRegistry()
	h := r.Histogram("h")
	h.Observe(0)
	hs, _ := r.Snapshot().Histogram("h")
	if hs.Quantile(0.5) != 0 {
		t.Errorf("all-zero observations: p50 = %d", hs.Quantile(0.5))
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter(`calls_total{call="share"}`).Add(3)
	r.Gauge("depth").Set(-2)
	r.Histogram("lat").Observe(1000)
	var buf bytes.Buffer
	if err := r.Snapshot().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Snap
	if err := json.NewDecoder(&buf).Decode(&back); err != nil {
		t.Fatal(err)
	}
	if v, ok := back.Counter(`calls_total{call="share"}`); !ok || v != 3 {
		t.Errorf("counter after round trip: %d ok=%v", v, ok)
	}
	if v, ok := back.Gauge("depth"); !ok || v != -2 {
		t.Errorf("gauge after round trip: %d ok=%v", v, ok)
	}
	h, ok := back.Histogram("lat")
	if !ok || h.Count != 1 {
		t.Errorf("histogram after round trip: %+v ok=%v", h, ok)
	}
}

func TestPrometheusEncoding(t *testing.T) {
	r := NewRegistry()
	r.Counter(`hc_total{call="share"}`).Add(2)
	r.Gauge("pages").Set(5)
	r.Histogram(`lat_ns{reason="hvc"}`).Observe(100)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE hc_total counter",
		`hc_total{call="share"} 2`,
		"# TYPE pages gauge",
		"pages 5",
		"# TYPE lat_ns histogram",
		`lat_ns_bucket{reason="hvc",le="127"} 1`,
		`lat_ns_bucket{reason="hvc",le="+Inf"} 1`,
		`lat_ns_sum{reason="hvc"} 100`,
		`lat_ns_count{reason="hvc"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusLabelEscaping(t *testing.T) {
	r := NewRegistry()
	// Hostile label values: a backslash, an embedded quote, a newline,
	// and all three at once across two labels. These arrive for real
	// via lock component and bug names interpolated into metric names.
	r.Counter(`evil_total{path="C:\temp"}`).Add(1)
	r.Counter(`evil_total{msg="he said "hi" loudly"}`).Add(2)
	r.Gauge("evil_gauge{note=\"line1\nline2\"}").Set(3)
	r.Histogram(`evil_ns{a="back\slash",b="qu"ote"}`).Observe(64)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`evil_total{path="C:\\temp"} 1`,
		`evil_total{msg="he said \"hi\" loudly"} 2`,
		`evil_gauge{note="line1\nline2"} 3`,
		`evil_ns_bucket{a="back\\slash",b="qu\"ote",le="127"} 1`,
		`evil_ns_sum{a="back\\slash",b="qu\"ote"} 64`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// No sample line may contain a raw (unescaped) newline inside its
	// label block: every line must still parse as name{...} value.
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") || line == "" {
			continue
		}
		if !strings.Contains(line, " ") {
			t.Errorf("torn exposition line (no value separator): %q", line)
		}
	}
}

func TestEscapeLabelsPassthrough(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{``, ``},
		{`k="v"`, `k="v"`},
		{`a="x",b="y"`, `a="x",b="y"`},
		{`garbage`, `garbage`},                  // not k="v" shaped
		{`k="unterminated`, `k="unterminated"`}, // repaired, value escaped
	} {
		if got := escapeLabels(tc.in); got != tc.want {
			t.Errorf("escapeLabels(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestReset(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h")
	c.Add(7)
	h.Observe(42)
	r.Reset()
	if c.Value() != 0 {
		t.Error("counter not reset")
	}
	hs, _ := r.Snapshot().Histogram("h")
	if hs.Count != 0 || hs.Sum != 0 || len(hs.Buckets) != 0 {
		t.Errorf("histogram not reset: %+v", hs)
	}
	// Held pointers stay registered.
	c.Inc()
	if v, _ := r.Snapshot().Counter("c"); v != 1 {
		t.Error("counter unusable after reset")
	}
}

func TestDisabledFlag(t *testing.T) {
	if Disabled() {
		t.Fatal("telemetry should default to enabled")
	}
	SetDisabled(true)
	if !Disabled() {
		t.Error("SetDisabled(true) not observed")
	}
	SetDisabled(false)
}

func TestFlightRecorderRingAndDump(t *testing.T) {
	fr := NewFlightRecorder(2, 4)
	for i := 0; i < 6; i++ {
		fr.Record(0, TrapEvent{Kind: "hvc", Name: "host_share_hyp", Ret: int64(i)})
	}
	fr.Record(1, TrapEvent{Kind: "irq"})
	d0 := fr.Dump(0)
	if len(d0) != 4 {
		t.Fatalf("dump depth = %d, want 4", len(d0))
	}
	// Oldest first, and only the newest 4 of 6 survive.
	if d0[0].Ret != 2 || d0[3].Ret != 5 {
		t.Errorf("ring order wrong: first=%d last=%d", d0[0].Ret, d0[3].Ret)
	}
	for i := 1; i < len(d0); i++ {
		if d0[i].Seq <= d0[i-1].Seq {
			t.Errorf("sequence not increasing: %d then %d", d0[i-1].Seq, d0[i].Seq)
		}
	}
	if len(fr.Dump(1)) != 1 {
		t.Error("cpu 1 dump wrong")
	}
	if fr.Dump(7) != nil {
		t.Error("out-of-range dump should be nil")
	}
	all := fr.DumpAll()
	if len(all) != 2 || len(all[0]) != 4 {
		t.Errorf("DumpAll shape wrong: %d cpus", len(all))
	}
	if s := FormatTrapEvents(d0); !strings.Contains(s, "host_share_hyp") {
		t.Errorf("formatted dump missing event name:\n%s", s)
	}
	if s := FormatTrapEvents(nil); !strings.Contains(s, "empty") {
		t.Errorf("empty dump format: %q", s)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(4, 16)
	var wg sync.WaitGroup
	for cpu := 0; cpu < 4; cpu++ {
		wg.Add(1)
		go func(cpu int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fr.Record(cpu, TrapEvent{Kind: "hvc", Dur: time.Microsecond})
				if i%17 == 0 {
					_ = fr.Dump((cpu + 1) % 4)
				}
			}
		}(cpu)
	}
	wg.Wait()
	for cpu := 0; cpu < 4; cpu++ {
		if len(fr.Dump(cpu)) != 16 {
			t.Errorf("cpu %d ring not full", cpu)
		}
	}
}

// TestFlightRecorderWraparoundSeqOrder hammers single rings from many
// goroutines through multiple wraparounds while dumping concurrently,
// and requires every dump's Seq column to be strictly increasing. The
// recorder once stamped Seq before taking the ring mutex; a preempted
// recorder could then slip an older Seq in behind a newer one and the
// dump came out torn. Run under -race this also exercises the
// dump-during-record paths.
func TestFlightRecorderWraparoundSeqOrder(t *testing.T) {
	const (
		nrCPUs     = 2
		depth      = 8
		goroutines = 4
		perG       = 500 // 4*500 per CPU = 250 wraparounds of an 8-deep ring
	)
	fr := NewFlightRecorder(nrCPUs, depth)
	var recorders, dumpers sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent dumpers: torn writes would also show up as racy
	// half-copied events under -race.
	for cpu := 0; cpu < nrCPUs; cpu++ {
		dumpers.Add(1)
		go func(cpu int) {
			defer dumpers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i, evs := 1, fr.Dump(cpu); i < len(evs); i++ {
					if evs[i].Seq <= evs[i-1].Seq {
						t.Errorf("cpu %d dump torn mid-run: seq %d then %d", cpu, evs[i-1].Seq, evs[i].Seq)
						return
					}
				}
			}
		}(cpu)
	}
	for g := 0; g < goroutines; g++ {
		recorders.Add(1)
		go func(g int) {
			defer recorders.Done()
			for i := 0; i < perG; i++ {
				for cpu := 0; cpu < nrCPUs; cpu++ {
					fr.Record(cpu, TrapEvent{Kind: "hvc", Ret: int64(g*perG + i)})
				}
			}
		}(g)
	}
	recorders.Wait()
	close(stop)
	dumpers.Wait()
	for cpu := 0; cpu < nrCPUs; cpu++ {
		evs := fr.Dump(cpu)
		if len(evs) != depth {
			t.Fatalf("cpu %d ring not full after wraparound: %d events", cpu, len(evs))
		}
		for i := 1; i < len(evs); i++ {
			if evs[i].Seq <= evs[i-1].Seq {
				t.Errorf("cpu %d final dump out of order: seq %d then %d", cpu, evs[i-1].Seq, evs[i].Seq)
			}
		}
	}
}

func TestNilFlightRecorder(t *testing.T) {
	var fr *FlightRecorder
	fr.Record(0, TrapEvent{}) // must not panic
	if fr.Dump(0) != nil || fr.DumpAll() != nil {
		t.Error("nil recorder should dump nil")
	}
}
