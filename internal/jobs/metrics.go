package jobs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"

	"rendelim/internal/gpusim"
	"rendelim/internal/stats"
)

// Stage names for the per-stage latency histograms.
const (
	StageQueue    = "queue"    // submission -> worker pickup
	StageBuild    = "build"    // trace decode / workload synthesis
	StageSimulate = "simulate" // gpusim run
)

// latencyBuckets are the histogram upper bounds in seconds.
var latencyBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// ratioBuckets bound a fraction in [0, 1] — the per-frame tile-elimination
// distribution (Figure 15a, live). The tails are finer than the middle
// because "nothing eliminated" and "almost everything eliminated" are the
// interesting regimes.
var ratioBuckets = []float64{0, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 1}

// Metrics aggregates pool counters for the /metrics endpoint. Counters are
// atomics; histograms are mutex-guarded stats.Histograms.
type Metrics struct {
	Submitted atomic.Uint64 // every Submit call
	Deduped   atomic.Uint64 // eliminated jobs: cache hits + in-flight joins
	Completed atomic.Uint64 // executions that produced a result
	Failed    atomic.Uint64 // executions that exhausted retries or timed out
	CacheHits atomic.Uint64 // result served straight from the LRU
	Joins     atomic.Uint64 // attached to an in-flight identical job
	Retries   atomic.Uint64 // transient-failure re-executions
	Timeouts  atomic.Uint64 // per-attempt deadline expiries
	Running   atomic.Int64  // jobs currently executing
	queueLen  atomic.Int64  // jobs submitted but not yet picked up

	Panics          atomic.Uint64 // contained run panics + worker-level panics
	Resumed         atomic.Uint64 // attempts that resumed from a checkpoint
	LoadShed        atomic.Uint64 // TrySubmit rejections on a full queue
	FramesSimulated atomic.Uint64 // frames actually executed (resume skips don't count)

	// inflightFn reads the pool's live singleflight population at scrape
	// time (gauges derived from pool state rather than counters). Set once
	// by New; nil in standalone Metrics (renders 0).
	inflightFn func() int

	mu    sync.Mutex
	hists map[string]*stats.Histogram

	// frameElim distributes each completed frame's tile-elimination ratio —
	// the paper's Figure 15a histogram, accumulated live across every job
	// the node runs.
	frameElim *stats.Histogram

	// sim accumulates the simulator-side counters of every completed run:
	// per-pipeline-stage cycles and the Figure 15a tile classification,
	// exported through /metrics so the service surfaces the same per-stage
	// attribution the paper's evaluation is built on.
	simMu sync.Mutex
	sim   gpusim.Stats
}

func newMetrics() *Metrics {
	return &Metrics{
		hists:     make(map[string]*stats.Histogram),
		frameElim: stats.NewHistogram(ratioBuckets...),
	}
}

// ObserveStage records one stage latency in seconds.
func (m *Metrics) ObserveStage(stage string, seconds float64) {
	m.mu.Lock()
	h, ok := m.hists[stage]
	if !ok {
		h = stats.NewHistogram(latencyBuckets...)
		m.hists[stage] = h
	}
	h.Observe(seconds)
	m.mu.Unlock()
}

// ObserveResult folds one completed run's simulator statistics into the
// service-wide totals, including each frame's tile-elimination ratio into
// the per-frame distribution.
func (m *Metrics) ObserveResult(res gpusim.Result) {
	m.simMu.Lock()
	m.sim.Add(res.Total)
	m.simMu.Unlock()
	for _, f := range res.Frames {
		m.frameElim.Observe(f.SkipFraction())
	}
}

// FrameEliminationHist exposes the per-frame tile-elimination distribution
// (for restat and tests).
func (m *Metrics) FrameEliminationHist() *stats.Histogram { return m.frameElim }

// SimTotals returns a snapshot of the accumulated simulator counters.
func (m *Metrics) SimTotals() gpusim.Stats {
	m.simMu.Lock()
	defer m.simMu.Unlock()
	return m.sim
}

// EliminationRatio is deduped/submitted — the job-level analogue of the
// tile SkipFraction internal/core reports.
func (m *Metrics) EliminationRatio() float64 {
	sub := m.Submitted.Load()
	if sub == 0 {
		return 0
	}
	return float64(m.Deduped.Load()) / float64(sub)
}

// CacheHitRatio is cache hits over cache lookups (hits + misses). A lookup
// happens on every submission that is not an in-flight join.
func (m *Metrics) CacheHitRatio() float64 {
	hits := m.CacheHits.Load()
	lookups := m.Submitted.Load() - m.Joins.Load()
	if lookups == 0 {
		return 0
	}
	return float64(hits) / float64(lookups)
}

// QueueDepth returns the number of submitted-but-not-running jobs.
func (m *Metrics) QueueDepth() int64 { return m.queueLen.Load() }

// InflightKeys returns the number of distinct signatures currently holding a
// singleflight leader (0 when the metrics are not attached to a pool).
func (m *Metrics) InflightKeys() int {
	if m.inflightFn == nil {
		return 0
	}
	return m.inflightFn()
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (hand-rolled; the repo is stdlib-only).
func (m *Metrics) WritePrometheus(w io.Writer) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gaugeF := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %g\n", name, help, name, name, v)
	}
	gaugeI := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}

	counter("resvc_jobs_submitted_total", "Jobs submitted to the pool.", m.Submitted.Load())
	counter("resvc_jobs_deduped_total", "Jobs eliminated by signature match (cache hit or in-flight join).", m.Deduped.Load())
	counter("resvc_jobs_completed_total", "Job executions that produced a result.", m.Completed.Load())
	counter("resvc_jobs_failed_total", "Job executions that failed permanently.", m.Failed.Load())
	counter("resvc_jobs_cache_hits_total", "Jobs served straight from the LRU result cache.", m.CacheHits.Load())
	counter("resvc_jobs_inflight_joins_total", "Jobs attached to an identical in-flight execution.", m.Joins.Load())
	counter("resvc_jobs_retries_total", "Transient-failure re-executions.", m.Retries.Load())
	counter("resvc_jobs_timeouts_total", "Job attempts that hit the per-attempt deadline.", m.Timeouts.Load())
	counter("resvc_jobs_panics_total", "Panics contained (in-run recover or worker replacement).", m.Panics.Load())
	counter("resvc_jobs_resumed_total", "Job attempts resumed from a frame-boundary checkpoint.", m.Resumed.Load())
	counter("resvc_load_shed_total", "Submissions rejected because the queue was full.", m.LoadShed.Load())
	counter("resvc_sim_frames_executed_total", "Frames actually executed by the built-in runner (checkpoint-resumed frames are not re-executed).", m.FramesSimulated.Load())
	gaugeF("resvc_job_elimination_ratio", "Fraction of submitted jobs eliminated without simulating (cf. tile skip fraction).", m.EliminationRatio())
	gaugeF("resvc_cache_hit_ratio", "LRU result cache hit ratio (hits / lookups).", m.CacheHitRatio())
	gaugeI("resvc_queue_depth", "Jobs submitted but not yet executing.", m.QueueDepth())
	gaugeI("resvc_jobs_running", "Jobs currently executing.", m.Running.Load())
	gaugeI("resvc_singleflight_inflight", "Distinct job signatures currently holding a singleflight leader.", int64(m.InflightKeys()))

	// Simulator-side totals across all completed runs: per-pipeline-stage
	// simulated cycles and the Figure 15a tile classification.
	sim := m.SimTotals()
	counter("resvc_sim_frames_total", "Frames simulated across all completed jobs.", sim.Frames)
	counter("resvc_sim_tiles_total", "Tiles processed across all completed jobs.", sim.TilesTotal)
	counter("resvc_sim_tiles_skipped_total", "Tiles eliminated by RE across all completed jobs.", sim.TilesSkipped)
	const scname = "resvc_sim_stage_cycles_total"
	fmt.Fprintf(w, "# HELP %s Simulated cycles attributed to each pipeline stage.\n# TYPE %s counter\n", scname, scname)
	for st := gpusim.PipeStage(0); st < gpusim.NumPipeStages; st++ {
		fmt.Fprintf(w, "%s{stage=%q} %d\n", scname, st.String(), sim.StageCycles[st])
	}
	const tcname = "resvc_sim_tile_class_total"
	fmt.Fprintf(w, "# HELP %s Tiles per Figure 15a class (vs the frame two swaps back).\n# TYPE %s counter\n", tcname, tcname)
	for c := gpusim.TileClass(0); c < gpusim.NumTileClasses; c++ {
		fmt.Fprintf(w, "%s{class=%q} %d\n", tcname, c.String(), sim.TileClasses[c])
	}

	// Per-frame tile-elimination ratio distribution (Figure 15a, live).
	const fename = "resvc_sim_frame_eliminated_ratio"
	fmt.Fprintf(w, "# HELP %s Per-frame fraction of tiles eliminated by RE across completed jobs.\n# TYPE %s histogram\n", fename, fename)
	m.frameElim.WritePrometheus(w, fename, "")

	m.mu.Lock()
	names := make([]string, 0, len(m.hists))
	for name := range m.hists {
		names = append(names, name)
	}
	sort.Strings(names)
	hists := make([]*stats.Histogram, len(names))
	for i, name := range names {
		hists[i] = m.hists[name]
	}
	m.mu.Unlock()
	const hname = "resvc_stage_latency_seconds"
	fmt.Fprintf(w, "# HELP %s Per-stage job latency (queue wait, trace build, simulation run).\n# TYPE %s histogram\n", hname, hname)
	for i, name := range names {
		hists[i].WritePrometheus(w, hname, fmt.Sprintf("stage=%q", name))
	}
}

// StageHist returns the named per-stage latency histogram, or nil if that
// stage has not been observed yet.
func (m *Metrics) StageHist(stage string) *stats.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.hists[stage]
}
