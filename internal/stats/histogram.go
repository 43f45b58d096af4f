package stats

import (
	"sort"
	"sync"
)

// Histogram is a fixed-bucket cumulative histogram in the Prometheus style:
// each bucket counts observations less than or equal to its upper bound, and
// an implicit +Inf bucket counts everything. It is safe for concurrent use —
// it is shared across HTTP handler goroutines, pool workers, and the
// forwarding client, so Observe and the readers are mutex-guarded.
type Histogram struct {
	mu     sync.Mutex
	bounds []float64 // sorted upper bounds, exclusive of +Inf
	counts []uint64  // per-bucket (non-cumulative) counts; len = len(bounds)+1
	sum    float64
	total  uint64
}

// NewHistogram builds a histogram over the given upper bounds (sorted
// ascending; an +Inf overflow bucket is implicit).
func NewHistogram(bounds ...float64) *Histogram {
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]uint64, len(b)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.total++
	h.mu.Unlock()
}

// HistSnapshot is a consistent point-in-time copy of a histogram, safe to
// read without further locking. Counts are cumulative per bound, Prometheus
// style; the implicit +Inf bucket equals Count.
type HistSnapshot struct {
	Bounds []float64
	Counts []uint64 // cumulative; len == len(Bounds)
	Sum    float64
	Count  uint64
}

// Snapshot copies the histogram state under one lock acquisition, so the
// buckets, sum and count are mutually consistent even while writers race.
func (h *Histogram) Snapshot() HistSnapshot {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HistSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.bounds)),
		Sum:    h.sum,
		Count:  h.total,
	}
	var c uint64
	for i := range h.bounds {
		c += h.counts[i]
		s.Counts[i] = c
	}
	return s
}

// Quantile estimates the q-th quantile (0 <= q <= 1) of a snapshot (or any
// cumulative bucket set, e.g. one scraped off /metrics) by linear
// interpolation within the bucket containing it — the same estimator
// PromQL's histogram_quantile applies. Observations in the +Inf bucket clamp
// to the highest finite bound. Returns 0 on an empty histogram.
func (s HistSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	for i, c := range s.Counts {
		if float64(c) >= rank {
			lower, lowerCount := 0.0, uint64(0)
			if i > 0 {
				lower, lowerCount = s.Bounds[i-1], s.Counts[i-1]
			}
			width := s.Bounds[i] - lower
			inBucket := float64(c - lowerCount)
			if inBucket == 0 {
				return s.Bounds[i]
			}
			return lower + width*(rank-float64(lowerCount))/inBucket
		}
	}
	// Quantile falls in the +Inf bucket: clamp to the highest finite bound.
	return s.Bounds[len(s.Bounds)-1]
}
