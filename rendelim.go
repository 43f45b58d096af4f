// Package rendelim is a trace-driven, tile-based-rendering mobile-GPU
// simulator reproducing "Rendering Elimination: Early Discard of Redundant
// Tiles in the Graphics Pipeline" (Anglada et al., HPCA 2019,
// arXiv:1807.09449).
//
// Rendering Elimination (RE) detects, before rasterization, that a tile's
// inputs — the vertex attributes of every overlapping primitive plus its
// drawcalls' scene constants — are identical to those of the previous frame,
// and skips the tile's entire Raster Pipeline execution, reusing the Frame
// Buffer contents. The package bundles:
//
//   - the RE controller and its Signature Unit (incremental, table-based
//     CRC32 over the tile-input bitstream);
//   - a functional software renderer (vertex/fragment shader VM,
//     rasterizer, early-Z, blending, texturing) so every result is computed
//     on real pixels;
//   - a Mali-450-like timing model, cache and LPDDR3 DRAM models, and a
//     McPAT-style energy model;
//   - the comparison techniques: Transaction Elimination and PFR-aided
//     Fragment Memoization;
//   - a synthetic benchmark suite mirroring the paper's Table II.
//
// Quick start:
//
//	trace, _ := rendelim.Build("ccs", rendelim.DefaultParams())
//	base, _ := rendelim.Run(trace, rendelim.WithTechnique(rendelim.Baseline))
//	re, _ := rendelim.Run(trace, rendelim.WithTechnique(rendelim.RE))
//	speedup := float64(base.Total.TotalCycles()) / float64(re.Total.TotalCycles())
//
// Simulations are configured with functional options (WithTechnique,
// WithTileWorkers, WithTracer, ...); see Option. WithTileWorkers spreads the
// raster phase across host CPUs without changing any simulated number.
package rendelim

import (
	"context"
	"io"

	"rendelim/internal/api"
	"rendelim/internal/energy"
	"rendelim/internal/gpusim"
	"rendelim/internal/trace"
	"rendelim/internal/workload"
)

// Re-exported core types. The implementation lives in internal packages;
// these aliases form the supported public surface.
type (
	// Technique selects the redundancy-elimination scheme under test.
	Technique = gpusim.Technique
	// Config parameterizes a simulation (Table I defaults).
	Config = gpusim.Config
	// Stats is a per-frame or aggregated measurement record.
	Stats = gpusim.Stats
	// Result is a whole-trace simulation outcome.
	Result = gpusim.Result
	// Simulator replays one trace under one configuration.
	Simulator = gpusim.Simulator
	// Params scales a synthetic benchmark build.
	Params = workload.Params
	// Trace is a recorded command-stream workload.
	Trace = api.Trace
	// Benchmark describes one entry of the benchmark suite.
	Benchmark = workload.Benchmark
	// EnergyParams is the energy model's parameter set.
	EnergyParams = energy.Params
	// EnergyBreakdown is an energy result in joules.
	EnergyBreakdown = energy.Breakdown
)

// Techniques.
const (
	Baseline = gpusim.Baseline
	RE       = gpusim.RE
	TE       = gpusim.TE
	Memo     = gpusim.Memo
)

// Tile classification (Figure 15a).
const (
	TileEqColorEqInput   = gpusim.TileEqColorEqInput
	TileEqColorDiffInput = gpusim.TileEqColorDiffInput
	TileDiffColor        = gpusim.TileDiffColor
	TileEqInputDiffColor = gpusim.TileEqInputDiffColor
)

// Traffic classes (Figure 15b).
const (
	TrafficVertex  = gpusim.TrafficVertex
	TrafficPBWrite = gpusim.TrafficPBWrite
	TrafficPBRead  = gpusim.TrafficPBRead
	TrafficTexel   = gpusim.TrafficTexel
	TrafficColor   = gpusim.TrafficColor
)

// DefaultConfig returns the paper's Table I configuration (Baseline
// technique).
func DefaultConfig() Config { return gpusim.DefaultConfig() }

// DefaultParams returns the default benchmark scale (quarter-resolution
// screen, 50 frames).
func DefaultParams() Params { return workload.DefaultParams() }

// Benchmarks returns the Table II suite in paper order.
func Benchmarks() []Benchmark { return workload.Suite() }

// ExtraBenchmarks returns the Figure 1 reference workloads (desktop,
// antutu).
func ExtraBenchmarks() []Benchmark { return workload.Extras() }

// Build synthesizes the named benchmark's trace at the given scale.
func Build(alias string, p Params) (*Trace, error) {
	b, err := workload.ByAlias(alias)
	if err != nil {
		return nil, err
	}
	return b.Build(p), nil
}

// NewSimulator builds a simulator over a trace, configured by opts on top
// of DefaultConfig. Configuration failures wrap ErrBadConfig; invalid
// traces wrap ErrBadTrace.
func NewSimulator(tr *Trace, opts ...Option) (*Simulator, error) {
	return gpusim.New(tr, buildConfig(opts))
}

// Run replays the whole trace under the given options and returns
// aggregated results.
func Run(tr *Trace, opts ...Option) (Result, error) {
	return RunContext(context.Background(), tr, opts...)
}

// RunContext is Run with cooperative cancellation: ctx is checked at frame
// boundaries (a frame is the smallest unit of simulated work), and on
// cancellation the partial result simulated so far is returned alongside
// ctx.Err().
func RunContext(ctx context.Context, tr *Trace, opts ...Option) (Result, error) {
	sim, err := gpusim.New(tr, buildConfig(opts))
	if err != nil {
		return Result{}, err
	}
	return sim.RunContext(ctx)
}

// ComputeEnergy evaluates the default energy model over a result's
// activity.
func ComputeEnergy(r Result) EnergyBreakdown {
	return energy.Default().Compute(r.Total.Activity)
}

// EncodeTrace writes a trace in the rendelim binary format.
func EncodeTrace(w io.Writer, tr *Trace) error { return trace.Encode(w, tr) }

// DecodeTrace reads a trace written by EncodeTrace.
func DecodeTrace(r io.Reader) (*Trace, error) { return trace.Decode(r) }
