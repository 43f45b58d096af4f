package stats

import (
	"math"
	"sync"
	"testing"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(1, 5, 10)
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	// The implicit +Inf bucket is Count.
	if s.Count != 5 {
		t.Fatalf("Count = %d, want 5", s.Count)
	}
	if s.Sum != 111.5 {
		t.Errorf("Sum = %g, want 111.5", s.Sum)
	}
	// le=1 counts 0.5 and 1 (bounds are inclusive); le=5 adds 3; le=10 adds 7.
	wantCum := []uint64{2, 3, 4}
	for i, want := range wantCum {
		if got := s.Counts[i]; got != want {
			t.Errorf("Counts[%d] = %d, want %d", i, got, want)
		}
	}
}

func TestHistogramSnapshotConsistency(t *testing.T) {
	h := NewHistogram(1, 2, 3)
	h.Observe(0.5)
	h.Observe(1.5)
	h.Observe(9)
	s := h.Snapshot()
	if s.Count != 3 || s.Sum != 11 {
		t.Fatalf("snapshot count/sum = %d/%g", s.Count, s.Sum)
	}
	if want := []uint64{1, 2, 2}; len(s.Counts) != len(want) {
		t.Fatalf("snapshot counts %v", s.Counts)
	} else {
		for i := range want {
			if s.Counts[i] != want[i] {
				t.Errorf("snapshot Counts[%d] = %d, want %d", i, s.Counts[i], want[i])
			}
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(0.1, 0.2, 0.4, 0.8)
	// 100 observations uniformly in the (0.1, 0.2] bucket.
	for i := 0; i < 100; i++ {
		h.Observe(0.15)
	}
	// The interpolated median of a single fully-populated bucket is its
	// midpoint.
	if got := h.Snapshot().Quantile(0.5); math.Abs(got-0.15) > 1e-9 {
		t.Errorf("Quantile(0.5) = %g, want 0.15", got)
	}
	if got := h.Snapshot().Quantile(1); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("Quantile(1) = %g, want 0.2", got)
	}
	// Values beyond the last bound clamp to it.
	h2 := NewHistogram(1, 2)
	h2.Observe(50)
	if got := h2.Snapshot().Quantile(0.99); got != 2 {
		t.Errorf("overflow Quantile = %g, want clamp to 2", got)
	}
	var empty Histogram
	if got := empty.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty Quantile = %g, want 0", got)
	}
}

// TestHistogramConcurrentObserve exercises the mutex under -race: many
// goroutines observing while readers snapshot concurrently. The final count
// must equal the number of observations (no lost updates).
func TestHistogramConcurrentObserve(t *testing.T) {
	h := NewHistogram(0.001, 0.01, 0.1, 1, 10)
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Observe(float64(g*perG+i) / float64(goroutines*perG) * 20)
				if i%64 == 0 {
					_ = h.Snapshot().Quantile(0.95)
				}
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("Count = %d, want %d (lost updates)", s.Count, goroutines*perG)
	}
	if s.Counts[len(s.Counts)-1] > s.Count {
		t.Fatalf("cumulative counts exceed total: %v > %d", s.Counts, s.Count)
	}
}
