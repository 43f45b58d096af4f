package cluster

import (
	"sync/atomic"

	"rendelim/internal/promtext"
	"rendelim/internal/stats"
)

// forwardBuckets are the forward round-trip histogram bounds in seconds:
// loopback hops sit in the sub-millisecond buckets, a ?wait=1 forward can
// legitimately hold for the whole simulation.
var forwardBuckets = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// Metrics aggregates the cluster-layer counters for /metrics. The gauges
// (peer liveness) are read live off the cluster state at scrape time.
type Metrics struct {
	Forwarded       atomic.Uint64 // submissions proxied to their owner
	StatusForwarded atomic.Uint64 // status lookups proxied to their owner
	RemoteHits      atomic.Uint64 // jobs eliminated by another node's cache (owner dedup or read-through)
	ReadThroughHits atomic.Uint64 // subset of RemoteHits served from the local read-through cache
	ForwardErrors   atomic.Uint64 // forwarded hops that failed at transport level
	Degraded        atomic.Uint64 // submissions simulated locally because the owner was unreachable
	HealthChecks    atomic.Uint64 // completed health-check sweeps

	// ForwardSeconds distributes forwarded-hop round-trip time (submit and
	// status hops alike, including failures), the cluster's contribution to
	// end-to-end latency.
	ForwardSeconds *stats.Histogram
}

func newMetrics() *Metrics {
	return &Metrics{ForwardSeconds: stats.NewHistogram(forwardBuckets...)}
}

// WritePrometheus writes the cluster metrics through w. Peer liveness,
// ring shares and the read-through size are read live at scrape time.
func (c *Cluster) WritePrometheus(w *promtext.Writer) {
	m := c.metrics
	w.Counter("resvc_cluster_forwarded_total", "Job submissions forwarded to their ring owner.", m.Forwarded.Load())
	w.Counter("resvc_cluster_status_forwarded_total", "Job status lookups forwarded to their ring owner.", m.StatusForwarded.Load())
	w.Counter("resvc_cluster_remote_hits_total", "Jobs eliminated by a result another node had already computed.", m.RemoteHits.Load())
	w.Counter("resvc_cluster_readthrough_hits_total", "Remote hits served from the local read-through cache without a hop.", m.ReadThroughHits.Load())
	w.Counter("resvc_cluster_forward_errors_total", "Forwarded hops that failed at the transport level.", m.ForwardErrors.Load())
	w.Counter("resvc_cluster_degraded_total", "Submissions simulated locally because their owner was unreachable.", m.Degraded.Load())
	w.Counter("resvc_cluster_health_checks_total", "Completed peer health-check sweeps.", m.HealthChecks.Load())
	w.Histogram("resvc_cluster_forward_seconds", "Forwarded-hop round-trip time (submit and status hops, including failures).",
		nil, promtext.HistSeries{Hist: m.ForwardSeconds})

	var up, share []promtext.Series
	shares := c.ring.ownership()
	for _, a := range c.ring.members { // sorted
		share = append(share, promtext.Series{Labels: []string{a}, Value: shares[a]})
		if ps, ok := c.peers[a]; ok {
			v := 0.0
			if ps.up.Load() {
				v = 1
			}
			up = append(up, promtext.Series{Labels: []string{a}, Value: v})
		}
	}
	w.Family(promtext.GaugeType, "resvc_cluster_peer_up", "Peer liveness as of the last health check (1 up, 0 down).",
		[]string{"peer"}, up)
	w.Family(promtext.GaugeType, "resvc_cluster_ring_share", "Fraction of the signature ring each member owns, self included, with every member up.",
		[]string{"peer"}, share)
	w.Gauge("resvc_cluster_members", "Ring members (static membership), self included.", float64(len(c.ring.members)))
	w.Gauge("resvc_cluster_readthrough_entries", "Read-through cache entries held locally.", float64(c.ReadThroughLen()))
}
