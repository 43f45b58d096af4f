package exp

import (
	"fmt"

	"rendelim/internal/energy"
	"rendelim/internal/gpusim"
	"rendelim/internal/stats"
	"rendelim/internal/timing"
	"rendelim/internal/workload"
)

// Fig01 reproduces Figure 1: average power (mW) and normalized GPU load per
// application, with the Android desktop and an Antutu-like stress test as
// references. Real devices render at a fixed refresh rate and the GPU idles
// (static power only) between frames, so average power is total energy over
// the 60 fps wall-clock window, and GPU load is the busy fraction of that
// window — the duty-cycling that makes the idle desktop cheap and a
// stress test expensive.
func (r *Runner) Fig01() *stats.Table {
	t := stats.NewTable("Figure 1: average power (mW) and GPU load (%)", "power_mW", "load_%")
	em := energy.Default()
	tm := timing.Default()
	aliases := append([]string{"desktop"}, SuiteAliases()...)
	aliases = append(aliases, "antutu")
	// Idle (power-gated) static power as a fraction of active static.
	const idleFraction = 0.05
	for _, a := range aliases {
		res := r.Result(a, gpusim.Baseline)
		busy := float64(res.Total.TotalCycles())
		wall := tm.FreqHz / 60 * float64(r.Params.Frames)
		if busy > wall { // the workload cannot hold 60 fps
			wall = busy
		}
		// Dynamic energy from activity; full static while busy, gated
		// static while idle.
		act := res.Total.Activity
		act.Cycles = 0
		dyn := em.Compute(act).Total()
		static := em.StaticGPU + em.StaticDRAM
		busySec := busy / tm.FreqHz
		wallSec := wall / tm.FreqHz
		e := dyn + static*busySec + idleFraction*static*(wallSec-busySec)
		t.Add(a, e/wallSec*1000, busy/wall*100)
	}
	return t
}

// Fig02 reproduces Figure 2: percentage of tiles producing the same color as
// the preceding (same-parity) frame.
func (r *Runner) Fig02() *stats.Table {
	t := stats.NewTable("Figure 2: equal tiles (%)", "equal_%")
	for _, a := range SuiteAliases() {
		res := r.Result(a, gpusim.Baseline)
		t.Add(a, res.Total.EqualColorFraction()*100)
	}
	t.AddAverage()
	return t
}

// TableI reproduces Table I: the simulated GPU parameters.
func (r *Runner) TableI() string {
	cfg := gpusim.DefaultConfig()
	d := cfg.DRAM
	return fmt.Sprintf(`Table I: GPU simulation parameters
----------------------------------
Tech specs          %0.f MHz, 32 nm model
Screen resolution   %dx%d (paper: 1196x768; shape-preserving scale)
Tile size           16x16 pixels
Main memory         dual channel, %d B/cycle aggregate, 50-100 cycle band
Vertex cache        %d KB, %d-way, %d B lines
Texture caches (4x) %d KB, %d-way, %d B lines
Tile cache          %d KB, %d-way, %d banks
L2 cache            %d KB, %d-way, %d banks, %d cycle
Color/Depth buffer  on-chip tile buffers (16x16)
Primitive assembly  %d triangle/cycle
Rasterizer          %d attributes/cycle
Vertex processors   %d
Fragment processors %d
`,
		cfg.Timing.FreqHz/1e6,
		r.Params.Width, r.Params.Height,
		d.Channels*d.BytesPerCycle,
		cfg.VertexCache.SizeBytes>>10, cfg.VertexCache.Ways, cfg.VertexCache.LineBytes,
		cfg.TextureCache.SizeBytes>>10, cfg.TextureCache.Ways, cfg.TextureCache.LineBytes,
		cfg.TileCache.SizeBytes>>10, cfg.TileCache.Ways, cfg.TileCache.Banks,
		cfg.L2Cache.SizeBytes>>10, cfg.L2Cache.Ways, cfg.L2Cache.Banks, cfg.L2Cache.Latency,
		cfg.Timing.TrianglesPerCycle, cfg.Timing.RasterAttrsPerCycle,
		cfg.Timing.VertexProcessors, cfg.Timing.FragmentProcessors)
}

// TableII reproduces Table II: the benchmark suite.
func (r *Runner) TableII() string {
	out := "Table II: benchmark suite\n-------------------------\n"
	for _, b := range workload.Suite() {
		out += fmt.Sprintf("%-20s %-5s %-22s %s\n", b.Name, b.Alias, b.Genre, b.Type)
	}
	return out
}

// Fig14a reproduces Figure 14a: execution cycles of RE normalized to the
// baseline, split into geometry and raster cycles.
func (r *Runner) Fig14a() *stats.Table {
	t := stats.NewTable("Figure 14a: normalized execution cycles (Base vs RE)",
		"base_geom", "base_raster", "re_geom", "re_raster", "re_total", "speedup")
	for _, a := range SuiteAliases() {
		base := r.Result(a, gpusim.Baseline).Total
		re := r.Result(a, gpusim.RE).Total
		bt := float64(base.TotalCycles())
		t.Add(a,
			float64(base.GeometryCycles)/bt,
			float64(base.RasterCycles)/bt,
			float64(re.GeometryCycles)/bt,
			float64(re.RasterCycles)/bt,
			float64(re.TotalCycles())/bt,
			bt/float64(re.TotalCycles()))
	}
	t.AddAverage()
	return t
}

// energySplit returns (gpu, mem) joules for a result.
func energySplit(res gpusim.Result) (gpu, mem float64) {
	b := energy.Default().Compute(res.Total.Activity)
	return b.GPU(), b.Memory()
}

// Fig14b reproduces Figure 14b: energy of RE normalized to the baseline,
// split into GPU and main-memory energy.
func (r *Runner) Fig14b() *stats.Table {
	t := stats.NewTable("Figure 14b: normalized energy (Base vs RE)",
		"base_gpu", "base_mem", "re_gpu", "re_mem", "re_total")
	for _, a := range SuiteAliases() {
		bg, bm := energySplit(r.Result(a, gpusim.Baseline))
		rg, rm := energySplit(r.Result(a, gpusim.RE))
		bt := bg + bm
		t.Add(a, bg/bt, bm/bt, rg/bt, rm/bt, (rg+rm)/bt)
	}
	t.AddAverage()
	return t
}

// Fig15a reproduces Figure 15a: tile classification against the frame two
// swaps back — equal colors & inputs (RE-detectable), equal colors with
// different inputs (false negatives), different colors, and the must-be-zero
// equal-inputs/different-colors class.
func (r *Runner) Fig15a() *stats.Table {
	t := stats.NewTable("Figure 15a: tile classes (%)",
		"eq_col_eq_in", "eq_col_diff_in", "diff", "eq_in_diff_col")
	for _, a := range SuiteAliases() {
		res := r.Result(a, gpusim.Baseline).Total
		n := float64(res.TilesClassified)
		if n == 0 {
			n = 1
		}
		t.Add(a,
			float64(res.TileClasses[gpusim.TileEqColorEqInput])/n*100,
			float64(res.TileClasses[gpusim.TileEqColorDiffInput])/n*100,
			float64(res.TileClasses[gpusim.TileDiffColor])/n*100,
			float64(res.TileClasses[gpusim.TileEqInputDiffColor])/n*100)
	}
	t.AddAverage()
	return t
}

// Fig15b reproduces Figure 15b: Raster Pipeline main-memory traffic of RE
// normalized to the baseline, split into colors, texels and primitives.
func (r *Runner) Fig15b() *stats.Table {
	t := stats.NewTable("Figure 15b: normalized raster-pipeline DRAM traffic",
		"base_colors", "base_texels", "base_prims", "re_colors", "re_texels", "re_prims", "re_total")
	for _, a := range SuiteAliases() {
		base := r.Result(a, gpusim.Baseline).Total
		re := r.Result(a, gpusim.RE).Total
		bt := float64(base.RasterTraffic())
		if bt == 0 {
			bt = 1
		}
		t.Add(a,
			float64(base.Traffic[gpusim.TrafficColor])/bt,
			float64(base.Traffic[gpusim.TrafficTexel])/bt,
			float64(base.Traffic[gpusim.TrafficPBRead])/bt,
			float64(re.Traffic[gpusim.TrafficColor])/bt,
			float64(re.Traffic[gpusim.TrafficTexel])/bt,
			float64(re.Traffic[gpusim.TrafficPBRead])/bt,
			float64(re.RasterTraffic())/bt)
	}
	t.AddAverage()
	return t
}

// Fig16 reproduces Figure 16: fragments shaded under RE and under PFR-aided
// Fragment Memoization, normalized to the baseline.
func (r *Runner) Fig16() *stats.Table {
	t := stats.NewTable("Figure 16: fragments shaded normalized to baseline", "re", "memo")
	for _, a := range SuiteAliases() {
		base := float64(r.Result(a, gpusim.Baseline).Total.FragsShaded)
		if base == 0 {
			base = 1
		}
		re := float64(r.Result(a, gpusim.RE).Total.FragsShaded)
		memo := float64(r.Result(a, gpusim.Memo).Total.FragsShaded)
		t.Add(a, re/base, memo/base)
	}
	t.AddAverage()
	return t
}

// Fig17a reproduces Figure 17a: execution cycles of TE and RE normalized to
// the baseline.
func (r *Runner) Fig17a() *stats.Table {
	t := stats.NewTable("Figure 17a: normalized cycles (TE vs RE)", "te", "re")
	for _, a := range SuiteAliases() {
		base := float64(r.Result(a, gpusim.Baseline).Total.TotalCycles())
		te := float64(r.Result(a, gpusim.TE).Total.TotalCycles())
		re := float64(r.Result(a, gpusim.RE).Total.TotalCycles())
		t.Add(a, te/base, re/base)
	}
	t.AddAverage()
	return t
}

// Fig17b reproduces Figure 17b: energy of TE and RE normalized to the
// baseline.
func (r *Runner) Fig17b() *stats.Table {
	t := stats.NewTable("Figure 17b: normalized energy (TE vs RE)", "te", "re")
	for _, a := range SuiteAliases() {
		bg, bm := energySplit(r.Result(a, gpusim.Baseline))
		tg, tm := energySplit(r.Result(a, gpusim.TE))
		rg, rm := energySplit(r.Result(a, gpusim.RE))
		t.Add(a, (tg+tm)/(bg+bm), (rg+rm)/(bg+bm))
	}
	t.AddAverage()
	return t
}

// Overhead reproduces the Section V overhead discussion: SU stall cycles as
// a percentage of geometry cycles (paper: 0.64% avg), the compare cycles
// charged (the signature-check stage less the SU stalls it also holds) as a
// percentage of total cycles, and the RE energy overhead share.
func (r *Runner) Overhead() *stats.Table {
	t := stats.NewTable("Section V: RE overheads",
		"su_stall_%geom", "compare_%total", "energy_ovh_%")
	em := energy.Default()
	for _, a := range SuiteAliases() {
		re := r.Result(a, gpusim.RE).Total
		geom := float64(re.GeometryCycles)
		if geom == 0 {
			geom = 1
		}
		cmp := float64(re.StageCycles[gpusim.StageSigCheck] - re.SUStallCycles)
		eb := em.Compute(re.Activity)
		t.Add(a,
			float64(re.SUStallCycles)/geom*100,
			cmp/float64(re.TotalCycles())*100,
			eb.REOverhead/eb.Total()*100)
	}
	t.AddAverage()
	return t
}
