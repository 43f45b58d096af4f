package rendelim

import (
	"rendelim/internal/gpusim"
	"rendelim/internal/obs"
)

// Tracer is the Chrome trace-event timeline sink (Perfetto-loadable) the
// simulator can record pipeline spans into; see WithTracer.
type Tracer = obs.Tracer

// NewTracer starts a trace sink; timestamps are relative to this call.
func NewTracer() *Tracer { return obs.NewTracer() }

// An Option configures a simulation built by NewSimulator, Run or
// RunContext. Options apply in argument order on top of DefaultConfig, so a
// later option overrides an earlier one (and WithConfig replaces everything
// set before it).
type Option func(*gpusim.Config)

// WithTechnique selects the redundancy-elimination technique under test:
// Baseline, RE (the paper's contribution), TE or Memo. The default is
// Baseline.
func WithTechnique(t Technique) Option {
	return func(c *gpusim.Config) { c.Technique = t }
}

// WithConfig replaces the entire configuration with cfg, for callers that
// build a gpusim.Config directly (custom cache geometries, timing or memory
// parameters). Options after it still apply on top. Energy is not part of
// a config: ComputeEnergy applies the default energy model to a result's
// activity counts.
func WithConfig(cfg Config) Option {
	return func(c *gpusim.Config) { *c = cfg }
}

// WithTileWorkers sets how many host goroutines render tiles concurrently
// in the raster phase: 0 or 1 runs serially (the default), n > 1 uses
// exactly n workers, and a negative value uses one worker per host CPU.
// This is host parallelism only — simulated cycles, traffic, tile
// classifications, energy activity and pixels are byte-identical at any
// worker count, so results never depend on the machine running them.
func WithTileWorkers(n int) Option {
	return func(c *gpusim.Config) { c.TileWorkers = n }
}

// WithTracer records a Chrome trace-event timeline of the run into t: one
// span per frame with nested per-stage spans, per-worker raster tracks, and
// instant events for tile eliminations. A nil t disables tracing (the
// default), which costs nothing on the simulation hot path. Tracing never
// changes simulated results.
func WithTracer(t *Tracer) Option {
	return func(c *gpusim.Config) { c.Tracer = t }
}

// buildConfig folds opts over the Table I defaults.
func buildConfig(opts []Option) Config {
	cfg := gpusim.DefaultConfig()
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}
