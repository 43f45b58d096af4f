package jobs

import (
	"sort"
	"sync"
	"sync/atomic"

	"rendelim/internal/gpusim"
	"rendelim/internal/promtext"
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
	Failed    atomic.Uint64 // executions that ended in an error, a panic or the deadline
	CacheHits atomic.Uint64 // result served straight from the LRU
	Joins     atomic.Uint64 // attached to an in-flight identical job
	Timeouts  atomic.Uint64 // job deadline expiries
	Running   atomic.Int64  // jobs currently executing
	queueLen  atomic.Int64  // jobs submitted but not yet picked up

	Panics          atomic.Uint64 // contained run panics
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

// SimTotals returns a snapshot of the accumulated simulator counters.
func (m *Metrics) SimTotals() gpusim.Stats {
	m.simMu.Lock()
	defer m.simMu.Unlock()
	return m.sim
}

// EliminationRatio is deduped/submitted — the job-level analogue of a
// frame's tile SkipFraction (gpusim.Stats).
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

// WritePrometheus writes every pool metric through w.
func (m *Metrics) WritePrometheus(w *promtext.Writer) {
	w.Counter("resvc_jobs_submitted_total", "Jobs submitted to the pool.", m.Submitted.Load())
	w.Counter("resvc_jobs_deduped_total", "Jobs eliminated by signature match (cache hit or in-flight join).", m.Deduped.Load())
	w.Counter("resvc_jobs_completed_total", "Job executions that produced a result.", m.Completed.Load())
	w.Counter("resvc_jobs_failed_total", "Job executions that failed; a job runs once.", m.Failed.Load())
	w.Counter("resvc_jobs_cache_hits_total", "Jobs served straight from the LRU result cache.", m.CacheHits.Load())
	w.Counter("resvc_jobs_inflight_joins_total", "Jobs attached to an identical in-flight execution.", m.Joins.Load())
	w.Counter("resvc_jobs_timeouts_total", "Jobs that hit the job deadline.", m.Timeouts.Load())
	w.Counter("resvc_jobs_panics_total", "Job runs whose panic was contained, failing the job.", m.Panics.Load())
	w.Counter("resvc_load_shed_total", "Submissions rejected because the queue was full.", m.LoadShed.Load())
	w.Counter("resvc_sim_frames_executed_total", "Frames actually executed by the built-in runner (checkpoint-resumed frames are not re-executed).", m.FramesSimulated.Load())
	w.Gauge("resvc_job_elimination_ratio", "Fraction of submitted jobs eliminated without simulating (cf. tile skip fraction).", m.EliminationRatio())
	w.Gauge("resvc_cache_hit_ratio", "LRU result cache hit ratio (hits / lookups).", m.CacheHitRatio())
	w.Gauge("resvc_queue_depth", "Jobs submitted but not yet executing.", float64(m.QueueDepth()))
	w.Gauge("resvc_jobs_running", "Jobs currently executing.", float64(m.Running.Load()))
	w.Gauge("resvc_singleflight_inflight", "Distinct job signatures currently holding a singleflight leader.", float64(m.InflightKeys()))

	// Simulator-side totals across all completed runs: per-pipeline-stage
	// simulated cycles and the Figure 15a tile classification.
	sim := m.SimTotals()
	w.Counter("resvc_sim_frames_total", "Frames simulated across all completed jobs.", sim.Frames)
	w.Counter("resvc_sim_tiles_total", "Tiles processed across all completed jobs.", sim.TilesTotal)
	w.Counter("resvc_sim_tiles_skipped_total", "Tiles eliminated by RE across all completed jobs.", sim.TilesSkipped)
	cycles := make([]promtext.Series, gpusim.NumPipeStages)
	for st := range cycles {
		cycles[st] = promtext.Series{Labels: []string{gpusim.PipeStage(st).String()}, Value: float64(sim.StageCycles[st])}
	}
	w.Family(promtext.CounterType, "resvc_sim_stage_cycles_total", "Simulated cycles attributed to each pipeline stage.",
		[]string{"stage"}, cycles)
	classes := make([]promtext.Series, gpusim.NumTileClasses)
	for c := range classes {
		classes[c] = promtext.Series{Labels: []string{gpusim.TileClass(c).String()}, Value: float64(sim.TileClasses[c])}
	}
	w.Family(promtext.CounterType, "resvc_sim_tile_class_total", "Tiles per Figure 15a class (vs the frame two swaps back).",
		[]string{"class"}, classes)

	// Per-frame tile-elimination ratio distribution (Figure 15a, live).
	w.Histogram("resvc_sim_frame_eliminated_ratio", "Per-frame fraction of tiles eliminated by RE across completed jobs.",
		nil, promtext.HistSeries{Hist: m.frameElim})

	m.mu.Lock()
	stages := make([]promtext.HistSeries, 0, len(m.hists))
	for name, h := range m.hists {
		stages = append(stages, promtext.HistSeries{Labels: []string{name}, Hist: h})
	}
	m.mu.Unlock()
	sort.Slice(stages, func(i, j int) bool { return stages[i].Labels[0] < stages[j].Labels[0] })
	w.Histogram("resvc_stage_latency_seconds", "Per-stage job latency (queue wait, trace build, simulation run).",
		[]string{"stage"}, stages...)
}
