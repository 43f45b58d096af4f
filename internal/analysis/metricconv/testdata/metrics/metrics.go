// Package metrics is metricconv testdata: every promtext.Writer method with
// conforming calls, a bad name, a wrong suffix and (where the method takes
// labels) an out-of-vocabulary label, plus the expvar rule.
package metrics

import (
	"expvar"

	"rendelim/internal/promtext"
	"rendelim/internal/stats"
)

func counters(w *promtext.Writer, frames uint64) {
	w.Counter("resvc_sim_frames_total", "frames simulated", frames)
	w.Counter("resvc_simFrames_total", "bad charset", frames) // want `metric name "resvc_simFrames_total" does not match`
	w.Counter("resvc_sim_frames", "frames simulated", frames) // want `counter "resvc_sim_frames" must end in _total`

	name := "resvc_sim_frames_total"
	w.Counter(name, "not a constant", frames) // want `metric name must be a constant`

	//lint:ignore metricconv legacy dashboard name kept until the dashboards migrate
	w.Counter("resvc_sim_Legacy_frames", "legacy", frames)
}

func gauges(w *promtext.Writer, depth float64) {
	const queue = "resvc_queue_depth"
	w.Gauge(queue, "queued jobs", depth)
	w.Gauge("resvc_queue__depth", "double underscore", depth)       // want `metric name "resvc_queue__depth" does not match`
	w.Gauge("resvc_queue_depth_total", "queued jobs", depth)        // want `gauge "resvc_queue_depth_total" must not end in _total`
	w.Gauge("internal_scratch_depth", "outside the surface", depth) // want `metric name "internal_scratch_depth" does not match`
}

func families(w *promtext.Writer, s []promtext.Series) {
	w.Family(promtext.CounterType, "resvc_sim_stage_cycles_total", "cycles", []string{"stage"}, s)
	w.Family(promtext.GaugeType, "resvc_cluster_peer_up", "liveness", []string{"peer"}, s)
	w.Family(promtext.GaugeType, "resvc_clusterPeerUp", "bad charset", []string{"peer"}, s)  // want `metric name "resvc_clusterPeerUp" does not match`
	w.Family(promtext.CounterType, "resvc_sim_stage_cycles", "cycles", []string{"stage"}, s) // want `counter "resvc_sim_stage_cycles" must end in _total`
	w.Family(promtext.GaugeType, "resvc_cluster_peer_up", "liveness", []string{"host"}, s)   // want `label "host" is outside the restat vocabulary`
	w.Family(promtext.HistogramType, "resvc_x_seconds", "buckets", nil, s)                   // want `write histograms with Histogram`
	w.Family("summary", "resvc_latency_quantiles", "quantiles", nil, s)                      // want `declared summary`

	keys := []string{"stage"}
	w.Family(promtext.CounterType, "resvc_sim_stage_cycles_total", "cycles", keys, s) // want `label keys must be a \[\]string literal`
}

func histograms(w *promtext.Writer, h *stats.Histogram) {
	w.Histogram("resvc_shade_latency_seconds", "latency", []string{"stage"}, promtext.HistSeries{Labels: []string{"shade"}, Hist: h})
	w.Histogram("resvc_sim_frame_eliminated_ratio", "ratio", nil, promtext.HistSeries{Hist: h})
	w.Histogram("resvc_shade-latency_seconds", "bad charset", nil)              // want `metric name "resvc_shade-latency_seconds" does not match`
	w.Histogram("resvc_shade_latency", "latency", nil)                          // want `histogram "resvc_shade_latency" must carry a unit suffix`
	w.Histogram("resvc_sim_frame_eliminated_ratio", "ratio", []string{"bench"}) // want `label "bench" is outside the restat vocabulary`
}

// publish covers expvar: node state under a resvc_ name belongs in
// /v1/metrics; other names (build info, runtime vars) are fine.
func publish(v expvar.Var) {
	expvar.Publish("resvc_cache_entries", v) // want `expvar "resvc_cache_entries" publishes node state outside /v1/metrics`
	expvar.Publish("rendelim_build_info", v)
}
