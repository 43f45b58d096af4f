package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rendelim/internal/apihttp"
	"rendelim/internal/cluster"
	"rendelim/internal/jobs"
	"rendelim/internal/store"
	"rendelim/internal/trace"
	"rendelim/internal/workload"
)

func quietSlog() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

func openRecoveryStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, store.Options{Logger: quietSlog()})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRestartRecoveryOverHTTP is the service-level restart story: results
// computed by one process are served — eliminated, byte-identical — by a
// new process opened on the same data dir, for both JSON-spec and
// uploaded-trace submissions, with the recovery quantified on /metrics.
func TestRestartRecoveryOverHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("restart recovery simulates jobs; skipped in -short")
	}
	dir := t.TempDir()
	jsonBody := `{"alias": "ccs", "tech": "re", "width": 96, "height": 64, "frames": 3}`
	b, err := workload.ByAlias("ctr")
	if err != nil {
		t.Fatal(err)
	}
	var traceBuf bytes.Buffer
	if err := trace.Encode(&traceBuf, b.Build(workload.Params{Width: 64, Height: 48, Frames: 2, Seed: 3})); err != nil {
		t.Fatal(err)
	}

	// Process one: compute both jobs, then die without a graceful drain.
	st := openRecoveryStore(t, dir)
	pool := jobs.NewPool(jobs.WithWorkers(2), jobs.WithStore(st), jobs.WithLogger(quietSlog()))
	ts := httptest.NewServer(New(pool, Limits{}).Handler())

	code, firstJSON := postJSON(t, ts.URL+"/v1/jobs?wait=1", jsonBody)
	if code != http.StatusOK || firstJSON.State != "done" {
		t.Fatalf("json submission: code %d, %+v", code, firstJSON)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/octet-stream", bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var firstTrace apihttp.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&firstTrace); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if firstTrace.State != "done" {
		t.Fatalf("trace submission: %+v", firstTrace)
	}
	ts.Close()
	pool.Kill()

	// Process two: same data dir, fresh everything else.
	st2 := openRecoveryStore(t, dir)
	pool2 := jobs.NewPool(jobs.WithWorkers(2), jobs.WithStore(st2), jobs.WithLogger(quietSlog()))
	defer pool2.Close(context.Background())
	ts2 := httptest.NewServer(New(pool2, Limits{}).Handler())
	defer ts2.Close()

	code, again := postJSON(t, ts2.URL+"/v1/jobs?wait=1", jsonBody)
	if code != http.StatusOK || again.State != "done" {
		t.Fatalf("post-restart json submission: code %d, %+v", code, again)
	}
	if !again.Deduped {
		t.Fatal("post-restart submission not eliminated by recovered cache")
	}
	r1, _ := json.Marshal(firstJSON.Result)
	r2, _ := json.Marshal(again.Result)
	if !bytes.Equal(r1, r2) {
		t.Fatalf("post-restart result differs:\n%s\n%s", r1, r2)
	}

	resp, err = http.Post(ts2.URL+"/v1/jobs?wait=1", "application/octet-stream", bytes.NewReader(traceBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var againTrace apihttp.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&againTrace); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !againTrace.Deduped {
		t.Fatal("post-restart trace submission not eliminated by recovered cache")
	}
	t1, _ := json.Marshal(firstTrace.Result)
	t2raw, _ := json.Marshal(againTrace.Result)
	if !bytes.Equal(t1, t2raw) {
		t.Fatal("post-restart trace result differs")
	}

	if n := pool2.Metrics().FramesSimulated.Load(); n != 0 {
		t.Fatalf("restarted process re-simulated %d frames", n)
	}
	if v := metricValue(t, ts2.URL, "resvc_store_results_loaded_total"); v != 2 {
		t.Fatalf("resvc_store_results_loaded_total = %v, want 2", v)
	}
}

// TestClusterServesRecoveredResultsRemotely: a result recovered from disk
// by one node is a cluster-wide asset — a submission entering through a
// peer is forwarded to the recovered owner and eliminated there, with zero
// frames simulated anywhere after the restart.
func TestClusterServesRecoveredResultsRemotely(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation in -short mode")
	}
	body, key := clusterSpec()

	// Phase 1: a lone store-backed node computes the result, then dies.
	dir := t.TempDir()
	st := openRecoveryStore(t, dir)
	pool := jobs.NewPool(jobs.WithWorkers(2), jobs.WithStore(st), jobs.WithLogger(quietSlog()))
	ts := httptest.NewServer(New(pool, Limits{}).Handler())
	code, first := postJSON(t, ts.URL+"/v1/jobs?wait=1", body)
	if code != http.StatusOK || first.State != "done" {
		t.Fatalf("pre-crash submission: code %d, %+v", code, first)
	}
	ts.Close()
	pool.Kill()

	// Phase 2: the node restarts on its data dir as one member of a
	// two-node cluster.
	st2 := openRecoveryStore(t, dir)
	pool0 := jobs.NewPool(jobs.WithWorkers(2), jobs.WithStore(st2), jobs.WithLogger(quietSlog()))
	defer pool0.Close(context.Background())
	srv0 := New(pool0, Limits{})

	// Both listener addresses decide ring ownership; re-roll both until the
	// key lands on the recovered node so the remote-hit path is the one
	// under test. Re-rolling only the peer can fail every try: when the
	// recovered node's ring points all sit far past the key, nearly every
	// peer address takes it.
	var (
		pool1    *jobs.Pool
		ts0, ts1 *httptest.Server
		addr0    string
		c0       *cluster.Cluster
		c1       *cluster.Cluster
	)
	for attempt := 0; ; attempt++ {
		if attempt >= 64 {
			t.Fatal("could not place key ownership on the recovered node in 64 tries")
		}
		ts0 = httptest.NewServer(srv0.Handler())
		addr0 = strings.TrimPrefix(ts0.URL, "http://")
		pool1 = jobs.NewPool(jobs.WithWorkers(2), jobs.WithLogger(quietSlog()))
		srv1 := New(pool1, Limits{})
		ts1 = httptest.NewServer(srv1.Handler())
		addr1 := strings.TrimPrefix(ts1.URL, "http://")

		var err error
		c0, err = cluster.New(cluster.Options{
			Self: addr0, Peers: []string{addr1},
			HealthTimeout: time.Second, ResultTTL: time.Minute, ForwardTimeout: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		c1, err = cluster.New(cluster.Options{
			Self: addr1, Peers: []string{addr0},
			HealthTimeout: time.Second, ResultTTL: time.Minute, ForwardTimeout: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if c0.Owner(key) == addr0 {
			srv0.SetCluster(c0)
			srv1.SetCluster(c1)
			defer ts0.Close()
			defer ts1.Close()
			defer pool1.Close(context.Background())
			break
		}
		ts0.Close()
		ts1.Close()
		pool1.Close(context.Background())
	}

	// Enter through the peer: forwarded to the recovered owner, served
	// from the cache the store rebuilt, no simulation anywhere.
	code, jr := postJSON(t, ts1.URL+"/v1/jobs?wait=1", body)
	if code != http.StatusOK || jr.State != "done" {
		t.Fatalf("post-restart submission via peer: code %d, %+v", code, jr)
	}
	if !jr.Deduped {
		t.Fatal("remote submission not eliminated by the recovered owner cache")
	}
	if jr.Node != addr0 {
		t.Fatalf("served by %q, want recovered owner %q", jr.Node, addr0)
	}
	r1, _ := json.Marshal(first.Result)
	r2, _ := json.Marshal(jr.Result)
	if !bytes.Equal(r1, r2) {
		t.Fatalf("remote recovered result differs:\n%s\n%s", r1, r2)
	}
	if n := pool0.Metrics().FramesSimulated.Load() + pool1.Metrics().FramesSimulated.Load(); n != 0 {
		t.Fatalf("post-restart cluster simulated %d frames", n)
	}
	if got := c1.Metrics().RemoteHits.Load(); got != 1 {
		t.Fatalf("peer RemoteHits = %d, want 1", got)
	}
}
