package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"rendelim/internal/apihttp"
)

// TestV1Routes: the versioned surface is the whole API — submit, status,
// health and metrics answer under /v1, Location fields point there, and the
// unversioned paths are not routes.
func TestV1Routes(t *testing.T) {
	srv, _ := newTestServer(t)

	// Submit through /v1/jobs; Location must be versioned.
	code, jr := postJSON(t, srv.URL+apihttp.PathJobs+"?wait=1",
		`{"alias": "ccs", "tech": "re", "width": 96, "height": 64, "frames": 2}`)
	if code != http.StatusOK {
		t.Fatalf("POST %s: status %d", apihttp.PathJobs, code)
	}
	if jr.Location != apihttp.JobPath(jr.ID) {
		t.Errorf("v1 submit Location = %q, want %q", jr.Location, apihttp.JobPath(jr.ID))
	}

	// The versioned status route resolves the same job.
	resp, err := http.Get(srv.URL + apihttp.JobPath(jr.ID))
	if err != nil {
		t.Fatal(err)
	}
	var jr2 apihttp.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr2); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || jr2.ID != jr.ID || jr2.State != "done" {
		t.Errorf("GET %s: status %d, id %q state %q", apihttp.JobPath(jr.ID), resp.StatusCode, jr2.ID, jr2.State)
	}

	// A re-submit of the same job is eliminated and gets its own Location.
	code, again := postJSON(t, srv.URL+apihttp.PathJobs+"?wait=1",
		`{"alias": "ccs", "tech": "re", "width": 96, "height": 64, "frames": 2}`)
	if code != http.StatusOK || !again.Deduped || again.Location != apihttp.JobPath(again.ID) {
		t.Errorf("re-submit: status %d, deduped %v, Location %q", code, again.Deduped, again.Location)
	}

	// /v1/healthz decodes into the shared typed response.
	hresp, err := http.Get(srv.URL + apihttp.PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	var h apihttp.HealthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if h.Status != "ok" || h.Workers < 1 {
		t.Errorf("GET %s: %+v", apihttp.PathHealthz, h)
	}

	// /v1/metrics serves the Prometheus text surface.
	mresp, err := http.Get(srv.URL + apihttp.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	mraw, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK || !strings.Contains(string(mraw), "resvc_jobs_submitted_total") {
		t.Errorf("GET %s: status %d, body %.80s", apihttp.PathMetrics, mresp.StatusCode, mraw)
	}

	for _, path := range []string{"/jobs", "/jobs/" + jr.ID, "/healthz", "/metrics"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404 (unversioned paths are not routes)", path, resp.StatusCode)
		}
	}
}
