package promtext_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"rendelim/internal/promtext"
	"rendelim/internal/stats"
)

const sample = `# HELP resvc_jobs_submitted_total Jobs submitted to the pool.
# TYPE resvc_jobs_submitted_total counter
resvc_jobs_submitted_total 42

# HELP resvc_cluster_peer_up Peer liveness (1 up, 0 down).
# TYPE resvc_cluster_peer_up gauge
resvc_cluster_peer_up{peer="127.0.0.1:8001"} 1
resvc_cluster_peer_up{peer="127.0.0.1:8002"} 0
`

func TestParseCountersAndGauges(t *testing.T) {
	m, err := promtext.Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if f := m.Families["resvc_jobs_submitted_total"]; f.Type != "counter" || !strings.Contains(f.Help, "submitted") {
		t.Errorf("family = %+v", f)
	}
	if v, ok := m.Value("resvc_jobs_submitted_total", nil); !ok || v != 42 {
		t.Errorf("submitted = %v, %v", v, ok)
	}
	if v, ok := m.Value("resvc_cluster_peer_up", map[string]string{"peer": "127.0.0.1:8002"}); !ok || v != 0 {
		t.Errorf("peer 8002 = %v, %v", v, ok)
	}
	if got := m.Sum("resvc_cluster_peer_up", nil); got != 1 {
		t.Errorf("Sum(peer_up) = %v, want 1", got)
	}
	if _, ok := m.Value("nope", nil); ok {
		t.Error("Value on missing metric reported ok")
	}
}

// A histogram family written by Writer.Histogram must round-trip through
// promtext.Parse + Metrics.Histogram into an equivalent snapshot, including across
// multiple label sets (summed), so restat's quantiles match the node's own.
func TestHistogramRoundTrip(t *testing.T) {
	h1 := stats.NewHistogram(0.1, 0.5, 1, 5)
	h2 := stats.NewHistogram(0.1, 0.5, 1, 5)
	for _, v := range []float64{0.05, 0.3, 0.7, 2, 9} {
		h1.Observe(v)
	}
	for _, v := range []float64{0.2, 0.4} {
		h2.Observe(v)
	}
	var buf bytes.Buffer
	promtext.NewWriter(&buf).Histogram("d", "latency", []string{"route"},
		promtext.HistSeries{Labels: []string{"/jobs"}, Hist: h1},
		promtext.HistSeries{Labels: []string{"/healthz"}, Hist: h2})

	m, err := promtext.Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	one, ok := m.Histogram("d", map[string]string{"route": "/jobs"})
	if !ok {
		t.Fatal("no buckets for route=/jobs")
	}
	want := h1.Snapshot()
	if one.Count != want.Count || one.Sum != want.Sum {
		t.Errorf("single-route snapshot = %+v, want %+v", one, want)
	}
	if got, wantQ := one.Quantile(0.5), want.Quantile(0.5); math.Abs(got-wantQ) > 1e-9 {
		t.Errorf("p50 = %v, want %v", got, wantQ)
	}

	all, ok := m.Histogram("d", nil)
	if !ok {
		t.Fatal("no buckets for merged histogram")
	}
	if all.Count != 7 {
		t.Errorf("merged count = %d, want 7", all.Count)
	}
	if math.Abs(all.Sum-(want.Sum+h2.Sum())) > 1e-9 {
		t.Errorf("merged sum = %v", all.Sum)
	}
	if _, ok := m.Histogram("missing", nil); ok {
		t.Error("Histogram on missing family reported ok")
	}
}

// malformed are expositions promtext.Parse must reject.
var malformed = []string{
	"name_without_value\n",
	`m{key} 1` + "\n",
	`m{k="v} 1` + "\n",
	"m not-a-number\n",
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range malformed {
		if _, err := promtext.Parse(strings.NewReader(bad)); err == nil {
			t.Errorf("promtext.Parse(%q) accepted malformed input", bad)
		}
	}
}

// Label values containing escapes must unquote correctly.
const escaped = `m{k="a\"b\\c"} 3` + "\n"

func TestParseEscapedLabels(t *testing.T) {
	m, err := promtext.Parse(strings.NewReader(escaped))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Value("m", map[string]string{"k": `a"b\c`}); !ok || v != 3 {
		t.Errorf("escaped label lookup = %v, %v", v, ok)
	}
}
