package promtext

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"rendelim/internal/jobs"
	"rendelim/internal/server"
	"rendelim/internal/stats"
)

// metricsBody returns a real /v1/metrics body: a resvc handler's exposition
// after it has served one small job.
func metricsBody(f *testing.F) string {
	f.Helper()
	pool := jobs.NewPool(jobs.WithWorkers(1))
	defer pool.Close(context.Background())
	h := server.New(pool, server.Limits{}).Handler()
	job := httptest.NewRequest("POST", "/v1/jobs?wait=1",
		strings.NewReader(`{"alias":"ccs","tech":"re","width":32,"height":32,"frames":2}`))
	job.Header.Set("Content-Type", "application/json")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, job)
	if rec.Code != 200 {
		f.Fatalf("POST /v1/jobs: %d %s", rec.Code, rec.Body)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/metrics", nil))
	if rec.Code != 200 {
		f.Fatalf("GET /v1/metrics: %d", rec.Code)
	}
	return rec.Body.String()
}

// FuzzParse feeds arbitrary text to Parse. No input may panic, and on an
// accepted exposition every sample is found again by its own name and
// labels, and Sum and Histogram(...).Quantile over every sample name run
// without panicking. Seeds are this package's test inputs and a real
// /v1/metrics body.
func FuzzParse(f *testing.F) {
	var hist bytes.Buffer
	h := stats.NewHistogram(0.1, 0.5, 1, 5)
	for _, v := range []float64{0.05, 0.3, 0.7, 2, 9} {
		h.Observe(v)
	}
	hist.WriteString("# HELP d latency\n# TYPE d histogram\n")
	h.WritePrometheus(&hist, "d", `route="/jobs"`)
	for _, seed := range append([]string{sample, hist.String(), escaped, metricsBody(f)}, malformed...) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		m, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		for _, s := range m.Samples {
			if _, ok := m.Value(s.Name, s.Labels); !ok {
				t.Fatalf("sample %+v not found by its own name and labels", s)
			}
			m.Sum(s.Name, nil)
			for _, name := range []string{s.Name, strings.TrimSuffix(s.Name, "_bucket")} {
				if snap, ok := m.Histogram(name, nil); ok {
					for _, q := range []float64{0, 0.5, 0.9, 1} {
						snap.Quantile(q)
					}
				}
			}
		}
	})
}
