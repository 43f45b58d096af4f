package exp

import (
	"fmt"

	"rendelim/internal/crc"
	"rendelim/internal/gpusim"
	"rendelim/internal/stats"
)

// HashAblation reproduces the Section III-B / V signature-function
// comparison: for each scheme it reports detected redundancy (skip fraction
// under RE) and false positives — tiles whose signature matched while the
// rendered colors actually changed (the "one every 4 billion tiles" risk the
// paper quantifies for CRC32). The suite exposes natural collisions; the
// adversarial workload targets the structural weaknesses of XOR-based
// schemes.
func (r *Runner) HashAblation() *stats.Table {
	t := stats.NewTable("Hash ablation: CRC32 vs XOR-based signatures",
		"skip_frac", "false_pos_suite", "false_pos_adv")
	aliases := SuiteAliases()
	for _, scheme := range crc.Schemes() {
		variant := gpusim.DefaultConfig()
		variant.Sig.Scheme = scheme.Name()
		var skipped, total, falsePos uint64
		for _, a := range aliases {
			res := r.ResultCfg(a, gpusim.Baseline, variant).Total
			falsePos += res.TileClasses[gpusim.TileEqInputDiffColor]
			re := r.ResultCfg(a, gpusim.RE, variant).Total
			skipped += re.TilesSkipped
			total += re.TilesTotal
		}
		adv := r.ResultCfg("adversarial", gpusim.Baseline, variant).Total
		t.Add(scheme.Name(),
			float64(skipped)/float64(total),
			float64(falsePos),
			float64(adv.TileClasses[gpusim.TileEqInputDiffColor]))
	}
	return t
}

// OTQueueAblation sweeps the Overlapped-Tiles queue depth (DESIGN.md §6),
// reporting Signature Unit stall cycles as a share of geometry cycles on a
// large-primitive-heavy benchmark.
func (r *Runner) OTQueueAblation() *stats.Table {
	t := stats.NewTable("Ablation: OT queue depth vs geometry stalls", "stall_%geom_mst", "stall_%geom_ccs")
	for _, depth := range []int{2, 4, 8, 16, 32, 64} {
		variant := gpusim.DefaultConfig()
		variant.Sig.OTQueueDepth = depth
		row := make([]float64, 0, 2)
		for _, a := range []string{"mst", "ccs"} {
			res := r.ResultCfg(a, gpusim.RE, variant).Total
			geom := float64(res.GeometryCycles)
			if geom == 0 {
				geom = 1
			}
			row = append(row, float64(res.SUStallCycles)/geom*100)
		}
		t.Add(fmt2("depth-%d", depth), row...)
	}
	return t
}

// MemoLUTAblation sweeps the memoization LUT capacity (512 — the original
// paper's default — through 4096, the paper's area-matched 2048 in between),
// reporting fragments shaded normalized to baseline.
func (r *Runner) MemoLUTAblation() *stats.Table {
	t := stats.NewTable("Ablation: memo LUT entries vs fragments shaded", "hop", "ccs", "mst")
	for _, entries := range []int{64, 256, 512, 2048, 4096} {
		variant := gpusim.DefaultConfig()
		variant.MemoLUTEntries = entries
		row := make([]float64, 0, 3)
		for _, a := range []string{"hop", "ccs", "mst"} {
			base := float64(r.Result(a, gpusim.Baseline).Total.FragsShaded)
			if base == 0 {
				base = 1
			}
			m := float64(r.ResultCfg(a, gpusim.Memo, variant).Total.FragsShaded)
			row = append(row, m/base)
		}
		t.Add(fmt2("entries-%d", entries), row...)
	}
	return t
}

// RefreshAblation sweeps the periodic-refresh interval (Section III-E's
// Frame Buffer refresh guarantee) against the skip fraction and cycle
// savings on a highly redundant benchmark.
func (r *Runner) RefreshAblation() *stats.Table {
	t := stats.NewTable("Ablation: refresh interval on cde", "skip_frac", "norm_cycles")
	base := float64(r.Result("cde", gpusim.Baseline).Total.TotalCycles())
	for _, interval := range []int{0, 2, 4, 8, 16} {
		variant := gpusim.DefaultConfig()
		variant.RefreshInterval = interval
		res := r.ResultCfg("cde", gpusim.RE, variant).Total
		t.Add(fmt2("every-%d", interval), res.SkipFraction(), float64(res.TotalCycles())/base)
	}
	return t
}

// BinningAblation compares bounding-box binning (the default, what simple
// Polygon List Builders do) against exact triangle-tile overlap tests:
// tighter bins remove sliver-triangle signature pollution, raising RE's
// detected redundancy, at extra per-tile binning work.
func (r *Runner) BinningAblation() *stats.Table {
	t := stats.NewTable("Ablation: PLB binning precision (RE skip fraction)",
		"bbox", "exact")
	variant := gpusim.DefaultConfig()
	variant.ExactBinning = true
	for _, a := range []string{"coc", "mst", "ctr", "tib"} {
		bbox := r.Result(a, gpusim.RE).Total
		exact := r.ResultCfg(a, gpusim.RE, variant).Total
		t.Add(a, bbox.SkipFraction(), exact.SkipFraction())
	}
	return t
}

// SubblockTradeoff reproduces the Section III-G design discussion
// analytically: Compute CRC unit subblock width vs signing latency for the
// paper's two reference blocks (64 B constants, 144 B primitive) and LUT
// storage. The hardware model fixes 8 bytes; this table shows why.
func (r *Runner) SubblockTradeoff() *stats.Table {
	t := stats.NewTable("Section III-G: subblock width trade-off",
		"lut_storage_KB", "const_cycles", "prim_cycles")
	for _, width := range []int{2, 4, 8, 16, 32} {
		t.Add(fmt2("%d-byte", width),
			float64(width), // one 1 KB LUT per byte lane
			ceilDiv(64, width),
			ceilDiv(144, width))
	}
	return t
}

func ceilDiv(a, b int) float64 { return float64((a + b - 1) / b) }

// fmt2 is a tiny sprintf wrapper to keep call sites short.
func fmt2(format string, args ...any) string { return fmt.Sprintf(format, args...) }
