package rendelim_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (one benchmark per table/figure; see DESIGN.md §3 for the
// index) and reports the headline series via b.ReportMetric, so
// `go test -bench . -benchmem` reproduces the whole evaluation. Set
// RENDELIM_BENCH_PRINT=1 to also dump the full tables (cmd/reexp prints
// them by default at full scale).
//
// The per-benchmark × per-technique simulation runs are shared through a
// lazily warmed singleton runner: the first figure benchmark pays the
// simulation cost, subsequent ones measure table assembly over the cached
// runs — mirroring how the paper derives all figures from one set of runs.

import (
	"fmt"
	"os"
	"sync"
	"testing"

	"rendelim"
	"rendelim/internal/exp"
	"rendelim/internal/gpusim"
	"rendelim/internal/stats"
	"rendelim/internal/workload"
)

var (
	runnerOnce sync.Once
	runner     *exp.Runner
)

// benchParams is the reduced scale used by the bench harness; cmd/reexp
// runs the full 480x272x50 configuration.
func benchParams() workload.Params {
	return workload.Params{Width: 256, Height: 160, Frames: 12, Seed: 1}
}

func sharedRunner(b *testing.B) *exp.Runner {
	runnerOnce.Do(func() {
		runner = exp.NewRunner(benchParams(), 0, 0)
		runner.Prefetch(exp.SuiteAliases(),
			[]gpusim.Technique{gpusim.Baseline, gpusim.RE, gpusim.TE, gpusim.Memo})
	})
	return runner
}

func reportTable(b *testing.B, t *stats.Table, metrics map[string]int) {
	b.Helper()
	if os.Getenv("RENDELIM_BENCH_PRINT") != "" {
		fmt.Println(t.String())
	}
	if len(t.Rows) == 0 {
		b.Fatal("empty table")
	}
	last := t.Rows[len(t.Rows)-1] // AVG row when present
	for name, col := range metrics {
		if col < len(last.Values) {
			b.ReportMetric(last.Values[col], name)
		}
	}
}

func BenchmarkFig01AveragePower(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		t := r.Fig01()
		reportTable(b, t, map[string]int{"last_power_mW": 0})
	}
}

func BenchmarkFig02EqualTiles(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		reportTable(b, r.Fig02(), map[string]int{"avg_equal_%": 0})
	}
}

func BenchmarkFig14aCycles(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		reportTable(b, r.Fig14a(), map[string]int{"avg_norm_cycles": 4, "avg_speedup": 5})
	}
}

func BenchmarkFig14bEnergy(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		reportTable(b, r.Fig14b(), map[string]int{"avg_norm_energy": 4})
	}
}

func BenchmarkFig15aTileClasses(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		reportTable(b, r.Fig15a(), map[string]int{
			"avg_eq_eq_%": 0, "avg_eq_diff_%": 1, "avg_diff_%": 2,
		})
	}
}

func BenchmarkFig15bTraffic(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		reportTable(b, r.Fig15b(), map[string]int{"avg_re_traffic": 6})
	}
}

func BenchmarkFig16FragmentsShaded(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		reportTable(b, r.Fig16(), map[string]int{"avg_re_frac": 0, "avg_memo_frac": 1})
	}
}

func BenchmarkFig17aTEvsRECycles(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		reportTable(b, r.Fig17a(), map[string]int{"avg_te": 0, "avg_re": 1})
	}
}

func BenchmarkFig17bTEvsREEnergy(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		reportTable(b, r.Fig17b(), map[string]int{"avg_te": 0, "avg_re": 1})
	}
}

func BenchmarkOverheadGeometry(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		reportTable(b, r.Overhead(), map[string]int{"avg_stall_%geom": 0, "avg_energy_ovh_%": 2})
	}
}

func BenchmarkHashAblation(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		reportTable(b, r.HashAblation(), map[string]int{"last_false_pos_adv": 2})
	}
}

func BenchmarkAblationOTQueue(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		reportTable(b, r.OTQueueAblation(), map[string]int{"deepest_stall_%": 0})
	}
}

func BenchmarkAblationMemoLUT(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		reportTable(b, r.MemoLUTAblation(), map[string]int{"hop_frac": 0})
	}
}

func BenchmarkAblationRefresh(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		reportTable(b, r.RefreshAblation(), map[string]int{"skip_frac": 0})
	}
}

func BenchmarkAblationSubblock(b *testing.B) {
	r := sharedRunner(b)
	for i := 0; i < b.N; i++ {
		reportTable(b, r.SubblockTradeoff(), map[string]int{"prim_cycles": 2})
	}
}

// --- Raw performance benchmarks (simulator throughput per technique) -------

func benchSimulate(b *testing.B, alias string, tech rendelim.Technique) {
	p := benchParams()
	tr, err := rendelim.Build(alias, p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := rendelim.Run(tr, rendelim.WithTechnique(tech))
		if err != nil {
			b.Fatal(err)
		}
		if res.Total.TilesTotal == 0 {
			b.Fatal("no tiles simulated")
		}
	}
	frames := float64(b.N * p.Frames)
	b.ReportMetric(frames/b.Elapsed().Seconds(), "frames/s")
}

func BenchmarkSimulateBaselineCCS(b *testing.B) { benchSimulate(b, "ccs", rendelim.Baseline) }
func BenchmarkSimulateRECCS(b *testing.B)       { benchSimulate(b, "ccs", rendelim.RE) }
func BenchmarkSimulateTECCS(b *testing.B)       { benchSimulate(b, "ccs", rendelim.TE) }
func BenchmarkSimulateMemoCCS(b *testing.B)     { benchSimulate(b, "ccs", rendelim.Memo) }
func BenchmarkSimulateBaselineMST(b *testing.B) { benchSimulate(b, "mst", rendelim.Baseline) }
func BenchmarkSimulateREMST(b *testing.B)       { benchSimulate(b, "mst", rendelim.RE) }
