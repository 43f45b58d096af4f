// Command restat is a live terminal dashboard for a resvc fleet: it polls
// every node's /v1/metrics (and /v1/healthz for its status line),
// reassembles the Prometheus histograms client-side, and renders per-node
// queue depth, cache size, peer health and request-latency quantiles next
// to the cluster-wide job-elimination and tile-skip ratios — the service's
// two Rendering Elimination numbers, live. Every number comes from
// /v1/metrics, the one place a node publishes its state.
//
// Usage:
//
//	restat -node 127.0.0.1:8080 [-node 127.0.0.1:8081 ...]
//	       [-interval 2s] [-timeout 5s] [-once] [-json]
//
// Without -once it refreshes in place every -interval. -once prints a single
// snapshot and exits; with -json the snapshot is machine-readable (one JSON
// document per refresh), for scripting and CI artifacts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"rendelim/internal/apihttp"
	"rendelim/internal/cluster"
	"rendelim/internal/promtext"
)

// NodeStat is one node's slice of the dashboard.
type NodeStat struct {
	Node  string `json:"node"`
	Up    bool   `json:"up"`
	Error string `json:"error,omitempty"`

	// Health is the node's own /v1/healthz self-report (status, workers,
	// uptime) — the typed apihttp view, where everything below is scraped
	// from the Prometheus text surface.
	Health *apihttp.HealthResponse `json:"health,omitempty"`

	QueueDepth   int64   `json:"queue_depth"`
	Running      int64   `json:"running"`
	Submitted    uint64  `json:"submitted"`
	Deduped      uint64  `json:"deduped"`
	ElimRatio    float64 `json:"job_elimination_ratio"`
	TilesTotal   uint64  `json:"tiles_total"`
	TilesSkipped uint64  `json:"tiles_skipped"`
	CacheEntries int64   `json:"cache_entries"`
	PeersUp      int     `json:"peers_up"`
	Peers        int     `json:"peers"`

	// Request-latency quantiles in seconds, estimated from the scraped
	// resvc_http_request_duration_seconds buckets across all routes.
	P50 float64 `json:"p50_seconds"`
	P95 float64 `json:"p95_seconds"`
	P99 float64 `json:"p99_seconds"`

	// Durable-store counters (resvc_store_*); all zero on nodes running
	// without -data-dir. Quarantined > 0 means corrupt snapshots were set
	// aside — damage survived, not damage hidden.
	ResultsLoaded uint64 `json:"store_results_loaded"`
	JobsRecovered uint64 `json:"store_jobs_recovered"`
	JobsResumed   uint64 `json:"store_jobs_resumed"`
	Quarantined   uint64 `json:"store_snapshots_quarantined"`
}

// ClusterStat aggregates the fleet: ratios are computed over summed
// counters, not averaged per-node ratios, so they match what a single giant
// node would have reported.
type ClusterStat struct {
	NodesUp      int     `json:"nodes_up"`
	Nodes        int     `json:"nodes"`
	Submitted    uint64  `json:"submitted"`
	Deduped      uint64  `json:"deduped"`
	QueueDepth   int64   `json:"queue_depth"`
	ElimRatio    float64 `json:"job_elimination_ratio"`
	TilesTotal   uint64  `json:"tiles_total"`
	TilesSkipped uint64  `json:"tiles_skipped"`
	TileRatio    float64 `json:"tile_skip_ratio"`
}

// Snapshot is one dashboard refresh (the -json document).
type Snapshot struct {
	Taken   time.Time   `json:"taken"`
	Nodes   []NodeStat  `json:"nodes"`
	Cluster ClusterStat `json:"cluster"`
}

// nodeList collects repeated -node flags.
type nodeList []string

func (n *nodeList) String() string     { return strings.Join(*n, ",") }
func (n *nodeList) Set(v string) error { *n = append(*n, v); return nil }

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "restat:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("restat", flag.ContinueOnError)
	var nodes nodeList
	fs.Var(&nodes, "node", "node address host:port (repeatable)")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	timeout := fs.Duration("timeout", 5*time.Second, "per-node scrape timeout")
	once := fs.Bool("once", false, "print one snapshot and exit")
	asJSON := fs.Bool("json", false, "emit snapshots as JSON documents")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(nodes) == 0 {
		return fmt.Errorf("at least one -node is required")
	}
	for i, n := range nodes {
		addr, err := cluster.NormalizeAddr(n)
		if err != nil {
			return err
		}
		nodes[i] = addr
	}
	client := &http.Client{Timeout: *timeout}

	for {
		snap := collect(client, nodes)
		if *asJSON {
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(snap); err != nil {
				return err
			}
		} else {
			if !*once {
				fmt.Fprint(stdout, "\x1b[2J\x1b[H") // clear + home
			}
			render(stdout, snap)
		}
		if *once {
			return nil
		}
		time.Sleep(*interval)
	}
}

// collect scrapes every node and aggregates the fleet view. Scrape failures
// mark the node down but never fail the snapshot: a dashboard that dies with
// its first unreachable node is useless during exactly the incidents it is
// for.
func collect(client *http.Client, nodes []string) Snapshot {
	snap := Snapshot{Taken: time.Now().UTC()}
	for _, node := range nodes {
		ns := scrapeNode(client, node)
		snap.Nodes = append(snap.Nodes, ns)
		snap.Cluster.Nodes++
		if !ns.Up {
			continue
		}
		snap.Cluster.NodesUp++
		snap.Cluster.Submitted += ns.Submitted
		snap.Cluster.Deduped += ns.Deduped
		snap.Cluster.QueueDepth += ns.QueueDepth
		snap.Cluster.TilesTotal += ns.TilesTotal
		snap.Cluster.TilesSkipped += ns.TilesSkipped
	}
	if snap.Cluster.Submitted > 0 {
		snap.Cluster.ElimRatio = float64(snap.Cluster.Deduped) / float64(snap.Cluster.Submitted)
	}
	if snap.Cluster.TilesTotal > 0 {
		snap.Cluster.TileRatio = float64(snap.Cluster.TilesSkipped) / float64(snap.Cluster.TilesTotal)
	}
	return snap
}

func scrapeNode(client *http.Client, node string) NodeStat {
	ns := NodeStat{Node: node}
	m, err := fetchMetrics(client, node)
	if err != nil {
		ns.Error = err.Error()
		return ns
	}
	ns.Up = true
	// The healthz self-report shares its wire type with the server
	// (apihttp.HealthResponse), so a field added there shows up here with
	// no decoding glue. A draining node still counts as up — it is
	// answering — but the status column says so.
	if h, err := fetchHealth(client, node); err == nil {
		ns.Health = h
	}
	gi := func(name string) int64 { v, _ := m.Value(name, nil); return int64(v) }
	gu := func(name string) uint64 { v, _ := m.Value(name, nil); return uint64(v) }
	ns.QueueDepth = gi("resvc_queue_depth")
	ns.Running = gi("resvc_jobs_running")
	ns.Submitted = gu("resvc_jobs_submitted_total")
	ns.Deduped = gu("resvc_jobs_deduped_total")
	ns.ElimRatio, _ = m.Value("resvc_job_elimination_ratio", nil)
	ns.TilesTotal = gu("resvc_sim_tiles_total")
	ns.TilesSkipped = gu("resvc_sim_tiles_skipped_total")
	ns.CacheEntries = gi("resvc_result_cache_entries")
	ns.ResultsLoaded = gu("resvc_store_results_loaded_total")
	ns.JobsRecovered = gu("resvc_store_jobs_recovered_total")
	ns.JobsResumed = gu("resvc_store_jobs_resumed_total")
	ns.Quarantined = gu("resvc_store_snapshots_quarantined_total")
	for _, s := range m.Samples {
		if s.Name == "resvc_cluster_peer_up" {
			ns.Peers++
			if s.Value > 0 {
				ns.PeersUp++
			}
		}
	}
	if h, ok := m.Histogram("resvc_http_request_duration_seconds", nil); ok {
		ns.P50, ns.P95, ns.P99 = h.Quantile(0.50), h.Quantile(0.95), h.Quantile(0.99)
	}
	return ns
}

func fetchMetrics(client *http.Client, node string) (*promtext.Metrics, error) {
	resp, err := client.Get("http://" + node + apihttp.PathMetrics)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s", node, apihttp.PathMetrics, resp.Status)
	}
	return promtext.Parse(resp.Body)
}

func fetchHealth(client *http.Client, node string) (*apihttp.HealthResponse, error) {
	resp, err := client.Get("http://" + node + apihttp.PathHealthz)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	// A draining node answers 503 with a valid body; decode either way.
	var h apihttp.HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, fmt.Errorf("%s %s: %v", node, apihttp.PathHealthz, err)
	}
	return &h, nil
}

// render draws the fleet table.
func render(w io.Writer, snap Snapshot) {
	fmt.Fprintf(w, "resvc cluster — %s\n\n", snap.Taken.Format(time.RFC3339))
	fmt.Fprintf(w, "%-22s %-5s %6s %4s %9s %8s %6s %6s %8s %8s %8s\n",
		"NODE", "UP", "QUEUE", "RUN", "SUBMIT", "ELIM%", "PEERS", "CACHE", "p50(ms)", "p95(ms)", "p99(ms)")
	for _, ns := range snap.Nodes {
		if !ns.Up {
			fmt.Fprintf(w, "%-22s %-5s %s\n", ns.Node, "DOWN", ns.Error)
			continue
		}
		fmt.Fprintf(w, "%-22s %-5s %6d %4d %9d %7.1f%% %3d/%-2d %6d %8.2f %8.2f %8.2f\n",
			ns.Node, "up", ns.QueueDepth, ns.Running, ns.Submitted, ns.ElimRatio*100,
			ns.PeersUp, ns.Peers, ns.CacheEntries,
			ns.P50*1000, ns.P95*1000, ns.P99*1000)
		// The store sub-line only appears on nodes whose store did
		// something — quiet fleets keep a quiet dashboard.
		if ns.ResultsLoaded+ns.JobsRecovered+ns.JobsResumed+ns.Quarantined > 0 {
			fmt.Fprintf(w, "%-22s store: %d results loaded, %d jobs recovered (%d resumed), %d quarantined\n",
				"", ns.ResultsLoaded, ns.JobsRecovered, ns.JobsResumed, ns.Quarantined)
		}
	}
	c := snap.Cluster
	fmt.Fprintf(w, "\ncluster: %d/%d nodes up, queue %d, jobs %d submitted / %d eliminated (%.1f%%), tiles %d / %d skipped (%.1f%%)\n",
		c.NodesUp, c.Nodes, c.QueueDepth, c.Submitted, c.Deduped, c.ElimRatio*100,
		c.TilesTotal, c.TilesSkipped, c.TileRatio*100)
}
