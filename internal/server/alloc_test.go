//go:build !race

// The race detector's instrumentation allocates, so these budgets hold
// only in a build without it.

package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rendelim/internal/jobs"
)

// allocsPerRequest serves the request that newReq returns through h and
// returns the average allocations per request, counting the recorder and
// whatever newReq allocates.
func allocsPerRequest(t *testing.T, h http.Handler, newReq func() *http.Request) float64 {
	t.Helper()
	serve := func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, newReq())
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
	}
	serve() // warm lazily built state: histograms, the result cache
	return testing.AllocsPerRun(50, serve)
}

// At the default info level the per-request debug record costs nothing:
// its arguments are not built. The budget leaves two allocations of slack
// over today's 22 for Go-version drift; building the record's arguments
// costs ten.
func TestAllocsHealthz(t *testing.T) {
	pool := jobs.NewPool(jobs.WithWorkers(1))
	t.Cleanup(func() { pool.Close(context.Background()) })
	h := New(pool, Limits{}).Handler()
	req := httptest.NewRequest(http.MethodGet, "/v1/healthz", nil) // no body: reusable
	got := allocsPerRequest(t, h, func() *http.Request { return req })
	t.Logf("GET /v1/healthz: %.1f allocs", got)
	if got > 24 {
		t.Errorf("GET /v1/healthz: %.1f allocs per request, budget 24", got)
	}
}

// A cache-hit submission (the elimination path) builds neither the
// request's nor the job's debug record at the default info level. The
// budget leaves three allocations of slack over today's 67; building the
// two records' arguments costs fifteen.
func TestAllocsCacheHitSubmit(t *testing.T) {
	pool := jobs.NewPool(jobs.WithWorkers(1))
	t.Cleanup(func() { pool.Close(context.Background()) })
	h := New(pool, Limits{}).Handler()
	const body = `{"alias": "ccs", "tech": "re", "width": 32, "height": 32, "frames": 1}`
	got := allocsPerRequest(t, h, func() *http.Request {
		req := httptest.NewRequest(http.MethodPost, "/v1/jobs?wait=1", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		return req
	})
	t.Logf("cache-hit POST /v1/jobs?wait=1: %.1f allocs", got)
	if got > 70 {
		t.Errorf("cache-hit POST /v1/jobs?wait=1: %.1f allocs per request, budget 70", got)
	}
}
