// Package exp regenerates every table and figure of the paper's evaluation
// (Section V) from simulation runs: the per-benchmark, per-technique runs
// are cached and shared across figures, so a full reproduction costs one
// Baseline + RE + TE + Memo run per benchmark. Each figure function returns
// a stats.Table whose rows mirror the paper's bars/series.
package exp

import (
	"context"
	"sync"

	"rendelim/internal/gpusim"
	"rendelim/internal/jobs"
	"rendelim/internal/obs"
	"rendelim/internal/workload"
)

// Runner schedules simulations through a jobs.Pool, so the batch harness
// and the resvc service share one scheduler: results are cached (and
// concurrent duplicate requests singleflighted) by the pool's job
// signature, the same Rendering-Elimination-style dedup the service
// applies to uploads.
type Runner struct {
	Params workload.Params

	pool   *jobs.Pool
	tracer *obs.Tracer
}

// NewRunner builds a runner at the given workload scale on its own pool.
// workers bounds the concurrent simulations and tileWorkers sets each
// one's raster-phase parallelism (gpusim.Config.TileWorkers semantics).
// With workers <= 0 the pool sizes itself to GOMAXPROCS divided by the
// tile-worker count, so the two compose without oversubscribing the host.
func NewRunner(p workload.Params, workers, tileWorkers int) *Runner {
	// Every (benchmark, technique, variant) of a full reproduction must stay
	// cached, so size the LRU far above the ~200 runs reexp performs.
	pool := jobs.NewPool(jobs.WithWorkers(workers), jobs.WithCacheSize(4096), jobs.WithTileWorkers(tileWorkers))
	return &Runner{Params: p, pool: pool}
}

// Pool exposes the underlying scheduler, e.g. for its elimination metrics.
func (r *Runner) Pool() *jobs.Pool { return r.pool }

// SetTracer attaches a pipeline-trace sink to every simulation the runner
// schedules (each unique run opens its own track). The tracer is excluded
// from job signatures, so cached re-requests stay eliminated — every
// distinct (benchmark, technique, config) is traced exactly once.
func (r *Runner) SetTracer(t *obs.Tracer) { r.tracer = t }

// Result returns the (cached) outcome of one benchmark under a technique
// and the default config.
func (r *Runner) Result(alias string, tech gpusim.Technique) gpusim.Result {
	return r.ResultCfg(alias, tech, gpusim.DefaultConfig())
}

// ResultCfg returns the (cached) outcome of one benchmark under a technique
// and cfg (whose Technique is ignored). The job key signs cfg itself, so a
// variant equal to the default shares the default run, and concurrent
// callers with the same key share one execution (the pool's singleflight).
func (r *Runner) ResultCfg(alias string, tech gpusim.Technique, cfg gpusim.Config) gpusim.Result {
	cfg.Tracer = r.tracer
	job, err := r.pool.Submit(jobs.Spec{Alias: alias, Params: r.Params, Tech: tech, Config: &cfg})
	if err != nil {
		panic(err) // experiment misconfiguration, not a runtime condition
	}
	res, err := job.Wait(context.Background())
	if err != nil {
		panic(err)
	}
	return res
}

// Prefetch computes the given (alias, technique) pairs in parallel, warming
// the pool's result cache. Concurrency is bounded by the pool's workers.
func (r *Runner) Prefetch(aliases []string, techs []gpusim.Technique) {
	var wg sync.WaitGroup
	for _, a := range aliases {
		for _, t := range techs {
			wg.Add(1)
			go func(a string, t gpusim.Technique) {
				defer wg.Done()
				r.Result(a, t)
			}(a, t)
		}
	}
	wg.Wait()
}

// SuiteAliases returns the Table II aliases in paper order.
func SuiteAliases() []string {
	var out []string
	for _, b := range workload.Suite() {
		out = append(out, b.Alias)
	}
	return out
}
