package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"rendelim/internal/apihttp"
	"rendelim/internal/cluster"
	"rendelim/internal/gpusim"
	"rendelim/internal/jobs"
	"rendelim/internal/obs"
	"rendelim/internal/workload"
)

// clusterNode is one in-process resvc node: its own pool, server, listener
// and cluster view, plus the node's telemetry plane (tracer, and a captured
// debug-level log whose records the journal keeps) so tests can follow a
// request across the fleet.
type clusterNode struct {
	pool    *jobs.Pool
	srv     *Server
	ts      *httptest.Server
	clus    *cluster.Cluster
	addr    string
	tracer  *obs.Tracer
	journal *obs.Journal
	logger  *slog.Logger // debug level, through journal into logs
	logs    *syncBuf
}

// syncBuf is a goroutine-safe log sink for per-node slog handlers.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startCluster boots n fully-meshed nodes over real loopback listeners.
// Health loops only start when healthInterval > 0; otherwise every peer
// stays in its optimistic initial "up" state, which makes routing
// deterministic for the elimination tests. Each node's pool also takes the
// option every poolOpts function returns for it.
func startCluster(t *testing.T, n int, healthInterval, resultTTL time.Duration, poolOpts ...func(*testing.T) jobs.Option) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	for i := range nodes {
		tracer := obs.NewTracer()
		logs := &syncBuf{}
		journal := obs.NewJournal(slog.NewTextHandler(logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
		logger := slog.New(journal)
		opts := []jobs.Option{jobs.WithWorkers(2), jobs.WithLogger(logger)}
		for _, o := range poolOpts {
			opts = append(opts, o(t))
		}
		pool := jobs.NewPool(opts...)
		srv := New(pool, Limits{})
		srv.SetLogger(logger)
		srv.SetTracer(tracer)
		srv.SetJournal(journal)
		ts := httptest.NewServer(srv.Handler())
		addr := strings.TrimPrefix(ts.URL, "http://")
		// Node-tagged pids make the merged Chrome trace render one labeled
		// track group per node.
		tracer.SetProcess(i+1, "resvc "+addr)
		nodes[i] = &clusterNode{
			pool:    pool,
			srv:     srv,
			ts:      ts,
			addr:    addr,
			tracer:  tracer,
			journal: journal,
			logger:  logger,
			logs:    logs,
		}
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
			HealthInterval: healthInterval,
			HealthTimeout:  time.Second,
			ResultTTL:      resultTTL,
			ForwardTimeout: 30 * time.Second,
			Logger:         nd.logger,
			Tracer:         nd.tracer,
		})
		if err != nil {
			t.Fatal(err)
		}
		nd.clus = c
		nd.srv.SetCluster(c)
		if healthInterval > 0 {
			c.Start()
		}
	}
	t.Cleanup(func() {
		for _, nd := range nodes {
			if nd.clus != nil && healthInterval > 0 {
				nd.clus.Stop()
			}
			nd.ts.Close()
			nd.pool.Close(context.Background())
		}
	})
	return nodes
}

// clusterSpec is the job every cluster test submits; its jobs.Key decides
// which node owns it.
func clusterSpec() (string, jobs.Key) {
	body := `{"alias": "ccs", "tech": "re", "width": 96, "height": 64, "frames": 2}`
	spec := jobs.Spec{
		Alias:  "ccs",
		Params: workload.Params{Width: 96, Height: 64, Frames: 2, Seed: 1},
		Tech:   gpusim.RE,
	}
	return body, spec.Key()
}

// postJob submits body to node and decodes the response.
func postJob(t *testing.T, node *clusterNode, body string) (int, apihttp.JobResponse) {
	t.Helper()
	resp, err := http.Post(node.ts.URL+"/v1/jobs?wait=1", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr apihttp.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatalf("decoding job response: %v", err)
	}
	return resp.StatusCode, jr
}

// scrape fetches a node's /metrics text.
func scrape(t *testing.T, node *clusterNode) string {
	t.Helper()
	resp, err := http.Get(node.ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// totalFramesExecuted sums the frames actually simulated across the fleet.
func totalFramesExecuted(nodes []*clusterNode) uint64 {
	var total uint64
	for _, nd := range nodes {
		total += nd.nodeFrames()
	}
	return total
}

func (n *clusterNode) nodeFrames() uint64 { return n.pool.Metrics().FramesSimulated.Load() }

// resultJSON canonicalizes the result payload for byte-identity comparison.
func resultJSON(t *testing.T, jr apihttp.JobResponse) string {
	t.Helper()
	if jr.Result == nil {
		t.Fatalf("job response carries no result: %+v", jr)
	}
	b, err := json.Marshal(jr.Result)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// The headline property: identical jobs submitted through *different* nodes
// are simulated exactly once cluster-wide, return byte-identical results,
// and the repeats count as remote hits — the owner's cache acting as a
// cluster-wide elimination cache.
func TestClusterCrossNodeElimination(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation in -short mode")
	}
	nodes := startCluster(t, 3, 0, time.Minute)
	body, key := clusterSpec()

	// Every node must agree on the owner (same ring, same membership).
	owner := nodes[0].clus.Owner(key)
	ownerIdx := -1
	for i, nd := range nodes {
		if got := nd.clus.Owner(key); got != owner {
			t.Fatalf("node %d derives owner %q, node 0 derived %q", i, got, owner)
		}
		if nd.addr == owner {
			ownerIdx = i
		}
	}
	if ownerIdx < 0 {
		t.Fatalf("owner %q is not a cluster member", owner)
	}
	entry1, entry2 := nodes[(ownerIdx+1)%3], nodes[(ownerIdx+2)%3]

	// First submission through the owner itself: a plain local run.
	code, first := postJob(t, nodes[ownerIdx], body)
	if code != http.StatusOK || first.State != "done" {
		t.Fatalf("first submission: code %d, %+v", code, first)
	}
	if first.Deduped {
		t.Fatalf("first submission cannot be deduped: %+v", first)
	}
	framesAfterFirst := totalFramesExecuted(nodes)
	if framesAfterFirst == 0 {
		t.Fatal("no frames executed by the first submission")
	}

	// Second submission via a different node: forwarded to the owner, whose
	// result cache eliminates it. Zero additional frames anywhere.
	code, second := postJob(t, entry1, body)
	if code != http.StatusOK || second.State != "done" {
		t.Fatalf("second submission: code %d, %+v", code, second)
	}
	if !second.Deduped {
		t.Fatalf("second submission via %s not eliminated: %+v", entry1.addr, second)
	}
	if second.Node != owner {
		t.Errorf("second submission node = %q, want owner %q", second.Node, owner)
	}
	if got := totalFramesExecuted(nodes); got != framesAfterFirst {
		t.Errorf("cross-node repeat re-simulated: frames %d -> %d", framesAfterFirst, got)
	}
	if got := entry1.clus.Metrics().RemoteHits.Load(); got != 1 {
		t.Errorf("entry node RemoteHits = %d, want 1", got)
	}
	if !strings.Contains(scrape(t, entry1), "resvc_cluster_remote_hits_total 1") {
		t.Error("entry node /metrics missing resvc_cluster_remote_hits_total 1")
	}
	if !strings.Contains(scrape(t, entry1), "resvc_cluster_forwarded_total 1") {
		t.Error("entry node /metrics missing resvc_cluster_forwarded_total 1")
	}

	// Third submission via the remaining node: same story.
	code, third := postJob(t, entry2, body)
	if code != http.StatusOK || !third.Deduped {
		t.Fatalf("third submission: code %d, %+v", code, third)
	}
	if got := totalFramesExecuted(nodes); got != framesAfterFirst {
		t.Errorf("third submission re-simulated: frames %d -> %d", framesAfterFirst, got)
	}

	// Results are byte-identical no matter which node the client reached.
	want := resultJSON(t, first)
	for i, jr := range []apihttp.JobResponse{second, third} {
		if got := resultJSON(t, jr); got != want {
			t.Errorf("submission %d result differs:\n got %s\nwant %s", i+2, got, want)
		}
	}

	// The repeat's Location routes a status GET back to the owner through
	// the entry node.
	if second.Location == "" || !strings.Contains(second.Location, "peer=") {
		t.Fatalf("forwarded Location %q lacks peer routing", second.Location)
	}
	resp, err := http.Get(entry1.ts.URL + second.Location)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status apihttp.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || status.State != "done" {
		t.Errorf("proxied status: code %d, %+v", resp.StatusCode, status)
	}
	if got := resultJSON(t, status); got != want {
		t.Errorf("proxied status result differs:\n got %s\nwant %s", got, want)
	}

	// A second submission through the same entry node is eliminated by the
	// local read-through cache — no extra hop, still a remote hit.
	forwardedBefore := entry1.clus.Metrics().Forwarded.Load()
	code, fourth := postJob(t, entry1, body)
	if code != http.StatusOK || !fourth.Deduped {
		t.Fatalf("read-through repeat: code %d, %+v", code, fourth)
	}
	if got := resultJSON(t, fourth); got != want {
		t.Errorf("read-through result differs:\n got %s\nwant %s", got, want)
	}
	if got := entry1.clus.Metrics().Forwarded.Load(); got != forwardedBefore {
		t.Errorf("read-through repeat still forwarded (%d -> %d)", forwardedBefore, got)
	}
	if got := entry1.clus.Metrics().ReadThroughHits.Load(); got != 1 {
		t.Errorf("ReadThroughHits = %d, want 1", got)
	}
}

// Killing the owner must not produce a 5xx storm: with the health checker
// too slow to notice (the worst case), submissions through a live node
// degrade to local simulation and still succeed.
func TestClusterOwnerDeathDegradesLocally(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation in -short mode")
	}
	// Health interval 0: no health loop, dead owner stays "up" in the ring.
	nodes := startCluster(t, 3, 0, time.Minute)
	body, key := clusterSpec()

	owner := nodes[0].clus.Owner(key)
	ownerIdx, entryIdx := -1, -1
	for i, nd := range nodes {
		if nd.addr == owner {
			ownerIdx = i
		} else if entryIdx < 0 {
			entryIdx = i
		}
	}
	if ownerIdx < 0 {
		t.Fatalf("owner %q not a member", owner)
	}
	nodes[ownerIdx].ts.Close() // kill the owner's listener

	entry := nodes[entryIdx]
	code, jr := postJob(t, entry, body)
	if code != http.StatusOK || jr.State != "done" {
		t.Fatalf("degraded submission: code %d, %+v", code, jr)
	}
	if jr.Result == nil {
		t.Fatalf("degraded submission returned no result: %+v", jr)
	}
	if got := entry.clus.Metrics().Degraded.Load(); got != 1 {
		t.Errorf("Degraded = %d, want 1", got)
	}
	if entry.nodeFrames() == 0 {
		t.Error("degraded submission did not simulate locally")
	}
	if !strings.Contains(scrape(t, entry), "resvc_cluster_degraded_total 1") {
		t.Error("/v1/metrics missing resvc_cluster_degraded_total 1")
	}
}

// The health checker must flip resvc_cluster_peer_up within one interval of
// a peer dying — and treat a *draining* peer (healthz 503) as down, so its
// key range rebalances before the listener ever closes.
func TestClusterHealthAndDrainRebalance(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster simulation in -short mode")
	}
	const interval = 25 * time.Millisecond
	nodes := startCluster(t, 3, interval, time.Minute)

	waitPeer := func(viewer *clusterNode, peer string, want bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if viewer.clus.PeerUp(peer) == want {
				return
			}
			time.Sleep(interval / 2)
		}
		t.Fatalf("%s never saw %s as up=%v", viewer.addr, peer, want)
	}

	// All peers seen up initially.
	for _, peer := range []*clusterNode{nodes[1], nodes[2]} {
		waitPeer(nodes[0], peer.addr, true)
	}
	gauge := fmt.Sprintf("resvc_cluster_peer_up{peer=%q} 1", nodes[1].addr)
	if !strings.Contains(scrape(t, nodes[0]), gauge) {
		t.Errorf("/v1/metrics missing %s", gauge)
	}

	// Draining flips the peer down (healthz 503) while it still serves.
	nodes[1].srv.StartDraining()
	waitPeer(nodes[0], nodes[1].addr, false)
	gauge = fmt.Sprintf("resvc_cluster_peer_up{peer=%q} 0", nodes[1].addr)
	if !strings.Contains(scrape(t, nodes[0]), gauge) {
		t.Errorf("/v1/metrics missing %s after drain", gauge)
	}

	// While node 1 drains, nothing routes to it: every key's owner is one
	// of the two live members from node 0's point of view.
	body, key := clusterSpec()
	if owner := nodes[0].clus.Owner(key); owner == nodes[1].addr {
		t.Errorf("draining peer still owns key %v", key)
	}
	if code, jr := postJob(t, nodes[0], body); code != http.StatusOK || jr.State != "done" {
		t.Errorf("submission during drain: code %d, %+v", code, jr)
	}

	// Hard-killing node 2 flips its gauge too (connection refused).
	nodes[2].ts.Close()
	waitPeer(nodes[0], nodes[2].addr, false)
}
