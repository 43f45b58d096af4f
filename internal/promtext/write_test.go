package promtext_test

import (
	"strings"
	"testing"

	"rendelim/internal/promtext"
	"rendelim/internal/stats"
)

// TestWriterHistogram pins the child series of a histogram family: the
// cumulative buckets with le last among the labels, then _sum and _count,
// each carrying the series' labels when it has any.
func TestWriterHistogram(t *testing.T) {
	h := stats.NewHistogram(1, 5)
	h.Observe(0.5)
	h.Observe(3)
	h.Observe(100)

	var plain strings.Builder
	promtext.NewWriter(&plain).Histogram("m", "help", nil, promtext.HistSeries{Hist: h})
	want := "# HELP m help\n# TYPE m histogram\n" +
		`m_bucket{le="1"} 1` + "\n" + `m_bucket{le="5"} 2` + "\n" + `m_bucket{le="+Inf"} 3` + "\n" +
		"m_sum 103.5\nm_count 3\n"
	if plain.String() != want {
		t.Errorf("plain histogram:\n%s\nwant:\n%s", plain.String(), want)
	}

	var labeled strings.Builder
	promtext.NewWriter(&labeled).Histogram("m", "help", []string{"route", "status"},
		promtext.HistSeries{Labels: []string{"/v1/jobs", "200"}, Hist: h})
	for _, want := range []string{
		`m_bucket{route="/v1/jobs",status="200",le="1"} 1`,
		`m_bucket{route="/v1/jobs",status="200",le="+Inf"} 3`,
		`m_sum{route="/v1/jobs",status="200"} 103.5`,
		`m_count{route="/v1/jobs",status="200"} 3`,
	} {
		if !strings.Contains(labeled.String(), want) {
			t.Errorf("labeled output missing %q:\n%s", want, labeled.String())
		}
	}
}

// Counters, gauges and labeled families each write one HELP/TYPE header
// and then their samples; whole numbers print as integers at any size, and
// a family with no series still declares itself.
func TestWriterFamilies(t *testing.T) {
	var b strings.Builder
	w := promtext.NewWriter(&b)
	w.Counter("c_total", "a counter", 12345678)
	w.Gauge("g", "a gauge", 0.25)
	w.Gauge("n", "a whole gauge", 2e6)
	w.Family(promtext.CounterType, "f_total", "a family", []string{"stage"},
		[]promtext.Series{{Labels: []string{"raster"}, Value: 3e9}, {Labels: []string{`a"b`}, Value: 1}})
	w.Family(promtext.GaugeType, "empty", "no series yet", []string{"peer"}, nil)
	want := `# HELP c_total a counter
# TYPE c_total counter
c_total 12345678
# HELP g a gauge
# TYPE g gauge
g 0.25
# HELP n a whole gauge
# TYPE n gauge
n 2000000
# HELP f_total a family
# TYPE f_total counter
f_total{stage="raster"} 3000000000
f_total{stage="a\"b"} 1
# HELP empty no series yet
# TYPE empty gauge
`
	if b.String() != want {
		t.Errorf("got:\n%s\nwant:\n%s", b.String(), want)
	}
	m, err := promtext.Parse(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := m.Value("f_total", map[string]string{"stage": `a"b`}); !ok || v != 1 {
		t.Errorf("escaped label read back as %v, %v", v, ok)
	}
	if f := m.Families["empty"]; f.Type != promtext.GaugeType {
		t.Errorf("empty family = %+v", f)
	}
}
