package promtext

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"rendelim/internal/stats"
)

// Family types a Writer emits, as a TYPE line spells them.
const (
	CounterType   = "counter"
	GaugeType     = "gauge"
	HistogramType = "histogram"
)

// Writer is the one encoder behind /v1/metrics: every package that exports
// metrics writes its families through it, and Parse reads them back. Each
// method writes one whole family, its HELP and TYPE lines and then its
// samples, so a family's header is written even before it has a sample.
// Write errors are dropped: an HTTP handler has nowhere to report them.
type Writer struct {
	w io.Writer
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Series is one sample of a labeled family: one label value per key of the
// family, in key order, and the sample's value.
type Series struct {
	Labels []string
	Value  float64
}

// HistSeries is one series of a histogram family: one label value per key
// of the family, in key order, and the histogram it renders.
type HistSeries struct {
	Labels []string
	Hist   *stats.Histogram
}

// Counter writes an unlabeled counter family.
func (w *Writer) Counter(name, help string, v uint64) {
	w.header(name, CounterType, help)
	fmt.Fprintf(w.w, "%s %d\n", name, v)
}

// Gauge writes an unlabeled gauge family.
func (w *Writer) Gauge(name, help string, v float64) {
	w.header(name, GaugeType, help)
	fmt.Fprintf(w.w, "%s %s\n", name, formatValue(v))
}

// Family writes a labeled counter or gauge family (typ is CounterType or
// GaugeType): one sample per series, labeled by keys.
func (w *Writer) Family(typ, name, help string, keys []string, series []Series) {
	w.header(name, typ, help)
	for _, s := range series {
		fmt.Fprintf(w.w, "%s{%s} %s\n", name, labelPairs(keys, s.Labels), formatValue(s.Value))
	}
}

// Histogram writes a histogram family: each series' cumulative buckets, sum
// and count, labeled by keys (nil for an unlabeled family of one series).
func (w *Writer) Histogram(name, help string, keys []string, series ...HistSeries) {
	w.header(name, HistogramType, help)
	for _, s := range series {
		snap := s.Hist.Snapshot()
		bucket, set := "", ""
		if pairs := labelPairs(keys, s.Labels); pairs != "" {
			bucket, set = pairs+",", "{"+pairs+"}"
		}
		for i, b := range snap.Bounds {
			fmt.Fprintf(w.w, "%s_bucket{%sle=\"%g\"} %d\n", name, bucket, b, snap.Counts[i])
		}
		fmt.Fprintf(w.w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, bucket, snap.Count)
		fmt.Fprintf(w.w, "%s_sum%s %g\n", name, set, snap.Sum)
		fmt.Fprintf(w.w, "%s_count%s %d\n", name, set, snap.Count)
	}
}

func (w *Writer) header(name, typ, help string) {
	fmt.Fprintf(w.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// labelPairs renders k1="v1",k2="v2" with the values quoted as Parse
// unquotes them.
func labelPairs(keys, vals []string) string {
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(vals[i]))
	}
	return b.String()
}

// formatValue writes whole numbers as integers, so counts and sizes read
// the same at any magnitude, and anything else in Go's shortest form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
