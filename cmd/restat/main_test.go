package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"rendelim/internal/cluster"
	"rendelim/internal/jobs"
	"rendelim/internal/server"
	"rendelim/internal/store"
)

// startNodes boots n fully-meshed in-process resvc nodes on loopback, the
// same shape the internal/server cluster tests use.
func startNodes(t *testing.T, n int) []string {
	t.Helper()
	type node struct {
		pool *jobs.Pool
		ts   *httptest.Server
		addr string
	}
	nodes := make([]*node, n)
	servers := make([]*server.Server, n)
	for i := range nodes {
		pool := jobs.NewPool(jobs.WithWorkers(2))
		srv := server.New(pool, server.Limits{})
		ts := httptest.NewServer(srv.Handler())
		nodes[i] = &node{pool: pool, ts: ts, addr: strings.TrimPrefix(ts.URL, "http://")}
		servers[i] = srv
	}
	addrs := make([]string, n)
	for i, nd := range nodes {
		addrs[i] = nd.addr
	}
	for i, nd := range nodes {
		var peers []string
		for j, other := range nodes {
			if j != i {
				peers = append(peers, other.addr)
			}
		}
		c, err := cluster.New(cluster.Options{
			Self:           nd.addr,
			Peers:          peers,
			ForwardTimeout: 30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		servers[i].SetCluster(c)
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			nd.ts.Close()
			nd.pool.Close(context.Background())
		}
	})
	return addrs
}

// restat -once -json against a live cluster must report a cluster-wide
// job-elimination ratio consistent with the nodes' summed counters — the
// acceptance check for the dashboard's aggregation math.
func TestRestatOnceJSONAgainstCluster(t *testing.T) {
	addrs := startNodes(t, 3)

	// Submit the same job through every node; the ring routes all three to
	// one owner, whose cache/singleflight eliminates the repeats, so the
	// fleet-wide deduped counter must be ≥ 2 out of 3 submissions.
	body := `{"alias": "ccs", "tech": "re", "width": 96, "height": 64, "frames": 2}`
	for _, addr := range addrs {
		resp, err := http.Post("http://"+addr+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit via %s: status %d", addr, resp.StatusCode)
		}
	}

	args := []string{"-once", "-json"}
	for _, addr := range addrs {
		args = append(args, "-node", addr)
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("restat: %v\n%s", err, out.String())
	}
	var snap Snapshot
	if err := json.Unmarshal(out.Bytes(), &snap); err != nil {
		t.Fatalf("restat -json emitted invalid JSON: %v\n%s", err, out.String())
	}

	if snap.Cluster.NodesUp != 3 || len(snap.Nodes) != 3 {
		t.Fatalf("nodes up = %d/%d, want 3/3", snap.Cluster.NodesUp, len(snap.Nodes))
	}
	var submitted, deduped uint64
	var queue int64
	for _, ns := range snap.Nodes {
		if !ns.Up {
			t.Fatalf("node %s down: %s", ns.Node, ns.Error)
		}
		submitted += ns.Submitted
		deduped += ns.Deduped
		queue += ns.QueueDepth
	}
	if snap.Cluster.Submitted != submitted || snap.Cluster.Deduped != deduped || snap.Cluster.QueueDepth != queue {
		t.Errorf("cluster totals %+v do not match summed node counters (submitted %d, deduped %d, queue %d)",
			snap.Cluster, submitted, deduped, queue)
	}
	if submitted == 0 {
		t.Fatal("no submissions recorded across the fleet")
	}
	want := float64(deduped) / float64(submitted)
	if snap.Cluster.ElimRatio != want {
		t.Errorf("cluster elimination ratio = %v, want %v (deduped/submitted)", snap.Cluster.ElimRatio, want)
	}
	// The ring sent every copy of the job to one owner: of the 3 identical
	// submissions the fleet accepted, at least the repeats were eliminated.
	if deduped < 2 {
		t.Errorf("deduped = %d, want >= 2 (cluster-wide elimination)", deduped)
	}

	// Every node served at least its own /metrics scrape, so the latency
	// histogram must carry observations and a sane p99.
	for _, ns := range snap.Nodes {
		if ns.P99 < 0 {
			t.Errorf("node %s p99 = %v, want >= 0", ns.Node, ns.P99)
		}
	}

	// CI keeps a snapshot as a workflow artifact when asked.
	if dir := os.Getenv("TRACE_ARTIFACT_DIR"); dir != "" {
		if err := os.WriteFile(filepath.Join(dir, "restat-snapshot.json"), out.Bytes(), 0o644); err != nil {
			t.Logf("writing restat snapshot artifact: %v", err)
		}
	}
}

// Each node's cache column must be that node's own
// resvc_result_cache_entries: after one job exactly the owner caches a
// result, whichever node the ring picked.
func TestRestatCacheEntriesPerNode(t *testing.T) {
	addrs := startNodes(t, 3)
	body := `{"alias": "ccs", "tech": "re", "width": 96, "height": 64, "frames": 2}`
	resp, err := http.Post("http://"+addrs[0]+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}

	args := []string{"-once", "-json"}
	for _, addr := range addrs {
		args = append(args, "-node", addr)
	}
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("restat: %v\n%s", err, out.String())
	}
	var snap Snapshot
	if err := json.Unmarshal(out.Bytes(), &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	var total int64
	for _, ns := range snap.Nodes {
		m, err := fetchMetrics(http.DefaultClient, ns.Node)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := m.Value("resvc_result_cache_entries", nil)
		if ns.CacheEntries != int64(want) {
			t.Errorf("node %s: restat cache entries = %d, its /v1/metrics says %v", ns.Node, ns.CacheEntries, want)
		}
		total += ns.CacheEntries
	}
	if total != 1 {
		t.Errorf("fleet caches %d results after one job, want 1 (on the owner)", total)
	}
}

// TestRestatReportsStoreRecovery: a node that recovered durable state on
// boot must surface the resvc_store_* counters in both the -json document
// and the rendered table's store sub-line.
func TestRestatReportsStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))

	st, err := store.Open(dir, store.Options{Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	pool := jobs.NewPool(jobs.WithWorkers(2), jobs.WithStore(st), jobs.WithLogger(quiet))
	ts := httptest.NewServer(server.New(pool, server.Limits{}).Handler())
	body := `{"alias": "ccs", "tech": "re", "width": 96, "height": 64, "frames": 2}`
	resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	ts.Close()
	pool.Kill()
	st.Close()

	st2, err := store.Open(dir, store.Options{Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	pool2 := jobs.NewPool(jobs.WithWorkers(2), jobs.WithStore(st2), jobs.WithLogger(quiet))
	ts2 := httptest.NewServer(server.New(pool2, server.Limits{}).Handler())
	t.Cleanup(func() {
		ts2.Close()
		pool2.Close(context.Background())
		st2.Close()
	})
	addr := strings.TrimPrefix(ts2.URL, "http://")

	var out bytes.Buffer
	if err := run([]string{"-once", "-json", "-node", addr}, &out); err != nil {
		t.Fatalf("restat: %v\n%s", err, out.String())
	}
	var snap Snapshot
	if err := json.Unmarshal(out.Bytes(), &snap); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	ns := snap.Nodes[0]
	if ns.ResultsRecovered != 1 {
		t.Errorf("store_results_recovered = %d, want 1", ns.ResultsRecovered)
	}
	if ns.TornTruncations != 0 || ns.Quarantined != 0 {
		t.Errorf("clean restart reported damage: torn=%d quarantined=%d", ns.TornTruncations, ns.Quarantined)
	}

	out.Reset()
	if err := run([]string{"-once", "-node", addr}, &out); err != nil {
		t.Fatalf("restat table: %v", err)
	}
	if !strings.Contains(out.String(), "store: 1 results") {
		t.Errorf("table missing store recovery sub-line:\n%s", out.String())
	}
}

func TestRestatRequiresNodes(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-once"}, &out); err == nil {
		t.Fatal("run without -node succeeded")
	}
}

// A down node must appear as DOWN in the table, not fail the whole snapshot.
func TestRestatToleratesDownNode(t *testing.T) {
	addrs := startNodes(t, 1)
	var out bytes.Buffer
	err := run([]string{"-once", "-node", addrs[0], "-node", "127.0.0.1:1", "-timeout", "500ms"}, &out)
	if err != nil {
		t.Fatalf("restat failed on a down node: %v", err)
	}
	text := out.String()
	if !strings.Contains(text, "DOWN") {
		t.Errorf("table does not mark the dead node DOWN:\n%s", text)
	}
	if !strings.Contains(text, "1/2 nodes up") {
		t.Errorf("cluster line does not report 1/2 nodes up:\n%s", text)
	}
}
