package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// CounterSnap is one counter's value at snapshot time.
type CounterSnap struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSnap is one gauge's value at snapshot time.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistSnap is one histogram's state at snapshot time. Buckets[i]
// counts observations v with bits.Len64(v) == i (log₂ buckets);
// trailing zero buckets are trimmed.
type HistSnap struct {
	Name    string   `json:"name"`
	Count   uint64   `json:"count"`
	Sum     uint64   `json:"sum"`
	Buckets []uint64 `json:"buckets"`
}

// BucketUpper returns the inclusive upper bound of bucket i: the
// largest value v with bits.Len64(v) == i.
func BucketUpper(i int) uint64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(i) - 1
}

// Quantile returns an upper-bound estimate of the q-th quantile
// (0 < q <= 1): the upper edge of the bucket holding the q-th
// observation. Returns 0 for an empty histogram.
func (h HistSnap) Quantile(q float64) uint64 {
	if h.Count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.Count))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, b := range h.Buckets {
		cum += b
		if cum >= rank {
			return BucketUpper(i)
		}
	}
	return BucketUpper(len(h.Buckets) - 1)
}

// Mean returns the arithmetic mean of the observations.
func (h HistSnap) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Snap is a point-in-time copy of a registry, ordered by name.
type Snap struct {
	Counters   []CounterSnap `json:"counters"`
	Gauges     []GaugeSnap   `json:"gauges"`
	Histograms []HistSnap    `json:"histograms"`
}

// Snapshot copies the registry's current values.
func (r *Registry) Snapshot() Snap {
	r.mu.Lock()
	defer r.mu.Unlock()
	var s Snap
	for _, n := range sortedNames(r.counters) {
		s.Counters = append(s.Counters, CounterSnap{Name: n, Value: r.counters[n].Value()})
	}
	for _, n := range sortedNames(r.gauges) {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: n, Value: r.gauges[n].Value()})
	}
	for _, n := range sortedNames(r.histograms) {
		h := r.histograms[n]
		hs := HistSnap{Name: n, Count: h.count.Load(), Sum: h.sum.Load()}
		last := -1
		var buckets [NrBuckets]uint64
		for i := range h.buckets {
			buckets[i] = h.buckets[i].Load()
			if buckets[i] != 0 {
				last = i
			}
		}
		hs.Buckets = append([]uint64(nil), buckets[:last+1]...)
		s.Histograms = append(s.Histograms, hs)
	}
	return s
}

// Snapshot copies the Default registry's current values.
func Snapshot() Snap { return Default.Snapshot() }

// Counter returns the snapshotted value of a named counter.
func (s Snap) Counter(name string) (uint64, bool) {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge returns the snapshotted value of a named gauge.
func (s Snap) Gauge(name string) (int64, bool) {
	for _, g := range s.Gauges {
		if g.Name == name {
			return g.Value, true
		}
	}
	return 0, false
}

// Histogram returns the snapshot of a named histogram.
func (s Snap) Histogram(name string) (HistSnap, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistSnap{}, false
}

// WriteJSON encodes the snapshot as JSON.
func (s Snap) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// splitName separates a registered name into its base metric name and
// inline label block: `a_total{x="y"}` -> (`a_total`, `x="y"`).
func splitName(name string) (base, labels string) {
	if i := strings.IndexByte(name, '{'); i >= 0 && strings.HasSuffix(name, "}") {
		return name[:i], name[i+1 : len(name)-1]
	}
	return name, ""
}

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format: backslash, double-quote and newline are the three
// characters that would otherwise terminate or corrupt the sample line.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeLabels rewrites a registered inline label block (`k="v",...`)
// with every value escaped. Registered values are raw — lock component
// names and bug identifiers flow in verbatim — so a value's closing
// quote is taken to be the one followed by `,` or the end of the
// block; hostile quotes, backslashes and newlines inside the value
// then survive as data instead of truncating the exposition line.
func escapeLabels(labels string) string {
	var b strings.Builder
	i := 0
	for i < len(labels) {
		eq := strings.IndexByte(labels[i:], '=')
		if eq < 0 || i+eq+1 >= len(labels) || labels[i+eq+1] != '"' {
			// Not a k="v" shape; pass the remainder through untouched.
			b.WriteString(labels[i:])
			break
		}
		b.WriteString(labels[i : i+eq+2]) // key, '=', opening quote
		j := i + eq + 2
		end := j
		for end < len(labels) && !(labels[end] == '"' && (end+1 == len(labels) || labels[end+1] == ',')) {
			end++
		}
		b.WriteString(escapeLabelValue(labels[j:end]))
		b.WriteByte('"')
		i = end + 1 // past the closing quote (or block end when unterminated)
		if i < len(labels) && labels[i] == ',' {
			b.WriteByte(',')
			i++
		}
	}
	return b.String()
}

// WritePrometheus encodes the snapshot in the Prometheus text
// exposition format. Histograms are emitted with cumulative le
// buckets at the log₂ upper bounds. Label values are escaped on the
// way out (see escapeLabels) — the registry stores them raw.
func (s Snap) WritePrometheus(w io.Writer) error {
	typed := map[string]bool{}
	typeLine := func(base, kind string) {
		if !typed[base] {
			fmt.Fprintf(w, "# TYPE %s %s\n", base, kind)
			typed[base] = true
		}
	}
	for _, c := range s.Counters {
		base, labels := splitName(c.Name)
		labels = escapeLabels(labels)
		typeLine(base, "counter")
		if labels != "" {
			labels = "{" + labels + "}"
		}
		fmt.Fprintf(w, "%s%s %d\n", base, labels, c.Value)
	}
	for _, g := range s.Gauges {
		base, labels := splitName(g.Name)
		labels = escapeLabels(labels)
		typeLine(base, "gauge")
		if labels != "" {
			labels = "{" + labels + "}"
		}
		fmt.Fprintf(w, "%s%s %d\n", base, labels, g.Value)
	}
	for _, h := range s.Histograms {
		base, labels := splitName(h.Name)
		labels = escapeLabels(labels)
		typeLine(base, "histogram")
		sep := ""
		if labels != "" {
			sep = ","
		}
		var cum uint64
		for i, b := range h.Buckets {
			cum += b
			if b == 0 {
				continue
			}
			fmt.Fprintf(w, "%s_bucket{%s%sle=\"%d\"} %d\n", base, labels, sep, BucketUpper(i), cum)
		}
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", base, labels, sep, h.Count)
		lb := ""
		if labels != "" {
			lb = "{" + labels + "}"
		}
		fmt.Fprintf(w, "%s_sum%s %d\n", base, lb, h.Sum)
		fmt.Fprintf(w, "%s_count%s %d\n", base, lb, h.Count)
	}
	return nil
}
