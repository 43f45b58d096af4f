package exp

import (
	"strings"
	"testing"

	"rendelim/internal/gpusim"
	"rendelim/internal/stats"
	"rendelim/internal/workload"
)

// The shape assertions below encode the paper's qualitative claims — who
// wins, roughly by how much, and where the crossovers fall — at a reduced
// scale (small screen, few frames), which is what a reproduction must
// preserve even when absolute numbers differ.

var testRunner = NewRunner(workload.Params{Width: 256, Height: 160, Frames: 12, Seed: 1}, 0, 0)

func value(t *testing.T, tb *stats.Table, row string, col int) float64 {
	t.Helper()
	for _, r := range tb.Rows {
		if r.Label == row {
			if col >= len(r.Values) {
				t.Fatalf("row %s has no column %d", row, col)
			}
			return r.Values[col]
		}
	}
	t.Fatalf("row %q not found in %q", row, tb.Title)
	return 0
}

func TestSuiteAliasesOrder(t *testing.T) {
	want := []string{"ccs", "cde", "coc", "ctr", "hop", "mst", "abi", "csn", "ter", "tib"}
	got := SuiteAliases()
	if len(got) != len(want) {
		t.Fatal("alias count")
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("alias %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestResultCaching(t *testing.T) {
	r := NewRunner(workload.Params{Width: 96, Height: 64, Frames: 4, Seed: 1}, 0, 0)
	a := r.Result("ccs", gpusim.Baseline)
	b := r.Result("ccs", gpusim.Baseline)
	if a.Total.TotalCycles() != b.Total.TotalCycles() {
		t.Fatal("cache returned different results")
	}
	// A variant equal to the default shares the default run; any other
	// config is a run of its own.
	m := r.Pool().Metrics()
	before := m.Completed.Load()
	r.ResultCfg("ccs", gpusim.Baseline, gpusim.DefaultConfig())
	if n := m.Completed.Load() - before; n != 0 {
		t.Errorf("the default config as a variant ran %d new simulations, want 0", n)
	}
	half := gpusim.DefaultConfig()
	half.MemoLUTEntries = 512
	r.ResultCfg("ccs", gpusim.Baseline, half)
	if n := m.Completed.Load() - before; n != 1 {
		t.Errorf("a 512-entry LUT variant ran %d new simulations, want 1", n)
	}
}

func TestFig02Shape(t *testing.T) {
	tb := testRunner.Fig02()
	// First category (static cameras): high equality.
	for _, a := range []string{"ccs", "cde", "coc", "ctr", "hop"} {
		if v := value(t, tb, a, 0); v < 80 {
			t.Errorf("%s equal tiles = %.1f%%, want > 80%% (Figure 2 first category)", a, v)
		}
	}
	// Continuous motion: near zero.
	if v := value(t, tb, "mst", 0); v > 5 {
		t.Errorf("mst equal tiles = %.1f%%, want ~0%%", v)
	}
	// Phase-mixed: in between.
	for _, a := range []string{"abi", "csn", "ter", "tib"} {
		v := value(t, tb, a, 0)
		if v < 15 || v > 90 {
			t.Errorf("%s equal tiles = %.1f%%, want intermediate", a, v)
		}
	}
}

func TestFig14aShape(t *testing.T) {
	tb := testRunner.Fig14a()
	// RE never slows any benchmark by more than 1%.
	for _, a := range SuiteAliases() {
		if v := value(t, tb, a, 4); v > 1.01 {
			t.Errorf("%s normalized RE cycles = %.3f > 1.01", a, v)
		}
	}
	// cde achieves the largest reduction (the paper's 86% peak).
	cde := value(t, tb, "cde", 4)
	for _, a := range SuiteAliases() {
		if a == "cde" {
			continue
		}
		if v := value(t, tb, a, 4); v < cde-1e-9 {
			t.Errorf("%s (%.3f) beats cde (%.3f); cde should lead", a, v, cde)
		}
	}
	// Meaningful average speedup (paper: 1.74x at full scale).
	if v := value(t, tb, "AVG", 5); v < 1.3 {
		t.Errorf("average speedup %.2fx too low", v)
	}
	// mst gains nothing.
	if v := value(t, tb, "mst", 5); v < 0.99 || v > 1.01 {
		t.Errorf("mst speedup %.3f, want ~1.0", v)
	}
}

func TestFig14bShape(t *testing.T) {
	tb := testRunner.Fig14b()
	if v := value(t, tb, "AVG", 4); v > 0.75 {
		t.Errorf("average normalized RE energy %.3f, want well below baseline", v)
	}
	if v := value(t, tb, "mst", 4); v > 1.01 {
		t.Errorf("mst RE energy overhead %.3f > 1%%", v)
	}
}

func TestFig15aShape(t *testing.T) {
	tb := testRunner.Fig15a()
	for _, a := range SuiteAliases() {
		// The paper observed zero equal-inputs/different-colors tiles;
		// with CRC32 we must too.
		if v := value(t, tb, a, 3); v != 0 {
			t.Errorf("%s: %.3f%% equal-input different-color tiles (collision!)", a, v)
		}
	}
	// The false-negative class (equal colors, different inputs) exists on
	// average (paper: 12%).
	if v := value(t, tb, "AVG", 1); v < 2 {
		t.Errorf("avg equal-color-diff-input = %.1f%%, want a visible share", v)
	}
	// hop is dominated by false negatives (its flicker overlay).
	if v := value(t, tb, "hop", 1); v < 20 {
		t.Errorf("hop equal-color-diff-input = %.1f%%, want large", v)
	}
}

func TestFig15bShape(t *testing.T) {
	tb := testRunner.Fig15b()
	if v := value(t, tb, "AVG", 6); v > 0.8 {
		t.Errorf("average RE raster traffic %.3f, want clear reduction", v)
	}
	if v := value(t, tb, "mst", 6); v < 0.99 {
		t.Errorf("mst RE traffic %.3f, want ~1.0", v)
	}
}

func TestFig16Shape(t *testing.T) {
	tb := testRunner.Fig16()
	// RE reuses more than memoization in the majority of benchmarks...
	reWins := 0
	for _, a := range SuiteAliases() {
		if value(t, tb, a, 0) < value(t, tb, a, 1) {
			reWins++
		}
	}
	if reWins < 6 {
		t.Errorf("RE beats memo on only %d/10 benchmarks", reWins)
	}
	// ...except hop, where intra-frame fragment repetition favors memo.
	if value(t, tb, "hop", 1) >= value(t, tb, "hop", 0) {
		t.Error("hop: memoization should shade fewer fragments than RE (the paper's exception)")
	}
}

func TestFig17Shape(t *testing.T) {
	a := testRunner.Fig17a()
	b := testRunner.Fig17b()
	// TE saves little time; RE much more (Figure 17a).
	if te, re := value(t, a, "AVG", 0), value(t, a, "AVG", 1); te < re {
		t.Errorf("TE cycles (%.3f) should exceed RE cycles (%.3f)", te, re)
	}
	// Energy: TE ~ -10%, RE much deeper (Figure 17b: 9%% vs 43%%).
	te := value(t, b, "AVG", 0)
	re := value(t, b, "AVG", 1)
	if te < 0.75 || te > 1.0 {
		t.Errorf("TE normalized energy %.3f outside the plausible band", te)
	}
	if re > te {
		t.Errorf("RE energy (%.3f) should beat TE (%.3f) on average", re, te)
	}
	// cde: RE gains a large additional margin over TE (paper: 65% extra).
	if gap := value(t, b, "cde", 0) - value(t, b, "cde", 1); gap < 0.3 {
		t.Errorf("cde TE-RE energy gap %.3f, want large", gap)
	}
}

func TestOverheadShape(t *testing.T) {
	tb := testRunner.Overhead()
	// SU stalls: small fraction of geometry cycles (paper: 0.64% avg).
	if v := value(t, tb, "AVG", 0); v > 5 {
		t.Errorf("avg SU stall %.2f%% of geometry, want small", v)
	}
	// RE energy overhead below 0.5% of total (paper's claim).
	if v := value(t, tb, "AVG", 2); v > 1.0 {
		t.Errorf("avg RE energy overhead %.2f%%, want < 1%%", v)
	}
}

func TestHashAblationShape(t *testing.T) {
	tb := testRunner.HashAblation()
	// CRC32: zero false positives everywhere.
	if value(t, tb, "crc32", 1) != 0 || value(t, tb, "crc32", 2) != 0 {
		t.Error("crc32 produced false positives")
	}
	// Order-insensitive schemes collide on the adversarial workload.
	if value(t, tb, "xor-fold", 2) == 0 {
		t.Error("xor-fold should alias the adversarial order swap")
	}
	if value(t, tb, "add32", 2) == 0 {
		t.Error("add32 should alias the adversarial order swap")
	}
}

// Exact binning gives each primitive a subset of its bounding-box tiles, so
// a tile's signature can only lose inputs: every tile that bbox binning
// eliminates stays eliminated, and the polluted ones can join them.
func TestBinningAblationShape(t *testing.T) {
	tb := testRunner.BinningAblation()
	if len(tb.Rows) == 0 {
		t.Fatal("binning ablation has no rows")
	}
	gained := false
	for _, r := range tb.Rows {
		bbox, exact := r.Values[0], r.Values[1]
		if exact < bbox {
			t.Errorf("%s: exact binning skips %.3f of tiles, bbox %.3f; want exact >= bbox", r.Label, exact, bbox)
		}
		gained = gained || exact > bbox
	}
	if !gained {
		t.Error("exact binning skips no more tiles than bbox on any row; want a gain somewhere")
	}
}

func TestTablesRender(t *testing.T) {
	if !strings.Contains(testRunner.TableI(), "Tile size") {
		t.Error("Table I missing content")
	}
	if !strings.Contains(testRunner.TableII(), "Candy Crush Saga") {
		t.Error("Table II missing content")
	}
}

func TestFig01Shape(t *testing.T) {
	tb := testRunner.Fig01()
	desktop := value(t, tb, "desktop", 0)
	antutu := value(t, tb, "antutu", 0)
	ccs := value(t, tb, "ccs", 0)
	// Figure 1's point: a simple game draws far more power than the idle
	// desktop and is comparable to a dedicated stress test.
	if ccs < desktop*1.4 {
		t.Errorf("ccs power (%.1f mW) should clearly exceed desktop (%.1f mW)", ccs, desktop)
	}
	if antutu < ccs {
		t.Errorf("antutu (%.1f mW) should exceed a simple game (%.1f mW)", antutu, ccs)
	}
	// Desktop GPU load is near zero; games keep the GPU visibly busy.
	if l := value(t, tb, "desktop", 1); l > 1.5 {
		t.Errorf("desktop load %.1f%%, want near idle", l)
	}
	if l := value(t, tb, "mst", 1); l < 2 {
		t.Errorf("mst load %.1f%%, want visibly busy", l)
	}
}

func TestAblationTablesNonEmpty(t *testing.T) {
	small := NewRunner(workload.Params{Width: 128, Height: 96, Frames: 6, Seed: 1}, 0, 0)
	for _, tb := range []*stats.Table{
		small.OTQueueAblation(),
		small.MemoLUTAblation(),
		small.RefreshAblation(),
		small.SubblockTradeoff(),
	} {
		if len(tb.Rows) == 0 {
			t.Errorf("%s: empty", tb.Title)
		}
	}
	// Subblock sanity: the paper's 8-byte point gives 8 and 18 cycles.
	tb := small.SubblockTradeoff()
	if value(t, tb, "8-byte", 1) != 8 || value(t, tb, "8-byte", 2) != 18 {
		t.Error("8-byte subblock latencies should be 8 and 18 cycles (Section III-G)")
	}
}
