package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sync/atomic"
	"testing"
	"time"

	"rendelim/internal/gpusim"
	"rendelim/internal/jobs"
	"rendelim/internal/obs"
	"rendelim/internal/workload"
)

func ev(name, ph string, tid int, ts float64) obs.Event {
	return obs.Event{Name: name, Ph: ph, TID: tid, TS: ts}
}

// TestFoldSpansTwoTracks folds a simulator track and a raster-worker track
// whose spans overlap in time: only same-track children count against a
// span's self time.
func TestFoldSpansTwoTracks(t *testing.T) {
	events := []obs.Event{
		{Name: "thread_name", Ph: "M", TID: 1},
		ev("frame", "B", 1, 0),
		ev("geometry", "B", 1, 0),
		ev("geometry", "E", 1, 10),
		ev("raster", "B", 1, 10),
		ev("raster-tile", "B", 2, 12), // worker track
		ev("fragment-shading", "B", 2, 14),
		ev("re-check", "B", 1, 20),
		ev("re-check", "E", 1, 25),
		{Name: "tile-eliminated", Ph: "i", TID: 1, TS: 26},
		ev("fragment-shading", "E", 2, 44),
		ev("raster-tile", "E", 2, 50),
		ev("raster", "E", 1, 90),
		ev("frame", "E", 1, 100),
		ev("stray", "E", 3, 101), // end with nothing open: ignored
		ev("open", "B", 3, 102),  // never closed: ignored
	}
	got := foldSpans(events, 0)
	want := map[string][2]float64{ // total, self
		"frame":            {100, 10},
		"geometry":         {10, 10},
		"raster":           {80, 75}, // the worker's raster-tile is not its child
		"re-check":         {5, 5},
		"raster-tile":      {38, 8},
		"fragment-shading": {30, 30},
	}
	for name, w := range want {
		if got.total[name] != w[0] || got.self[name] != w[1] || got.count[name] != 1 {
			t.Errorf("%s: total %v self %v count %d, want total %v self %v count 1",
				name, got.total[name], got.self[name], got.count[name], w[0], w[1])
		}
	}
	if len(got.count) != len(want) {
		t.Errorf("folded names %v, want exactly %d", got.count, len(want))
	}
}

// TestFoldFromFrame skips warm-up frames: folding starts at the begin event
// of the first timed frame.
func TestFoldFromFrame(t *testing.T) {
	frame := func(i int64, ts float64) obs.Event {
		return obs.Event{Name: "frame", Ph: "B", TID: 1, TS: ts, Args: map[string]any{"frame": i}}
	}
	events := []obs.Event{
		frame(0, 0), ev("frame", "E", 1, 7),
		frame(1, 10), ev("frame", "E", 1, 13),
	}
	from := frameStart(events, 1)
	if from != 2 {
		t.Fatalf("frameStart = %d, want 2", from)
	}
	if got := foldSpans(events, from).total["frame"]; got != 3 {
		t.Errorf("folded frame time %v, want 3", got)
	}
	if frameStart(events, 5) != -1 {
		t.Error("frameStart found a frame that is not there")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := tailSamples(100, 0.9); got != 10 {
		t.Errorf("tailSamples(100, 0.9) = %d, want 10", got)
	}
	if got := tailSamples(99, 0.9); got != 9 {
		t.Errorf("tailSamples(99, 0.9) = %d, want 9", got)
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// TestTypicalLatencyIgnoresMix: the percentiles must not depend on how many
// fast and slow runs the matrix holds, only on the spread within runs.
func TestTypicalLatencyIgnoresMix(t *testing.T) {
	run := func(base float64) []float64 {
		out := make([]float64, 0, 100)
		for i := 0; i < 100; i++ {
			out = append(out, base*(1+float64(i)/100))
		}
		return out
	}
	a := typicalLatency([][]float64{run(1), run(100)})
	b := typicalLatency([][]float64{run(1), run(100), run(100), run(100)})
	if a.Samples != 200 || b.Samples != 400 {
		t.Fatalf("samples %d and %d, want 200 and 400", a.Samples, b.Samples)
	}
	// Equal run counts: typical = 10 (geometric mean of medians 1.5 and 150
	// scaled by 1/1.5 each); within-run spread is the same in every run.
	if math.Abs(a.P90/a.P50-b.P90/b.P50) > 1e-9 {
		t.Errorf("p90/p50 %v vs %v: the mix moved the tail", a.P90/a.P50, b.P90/b.P50)
	}
	if a.P50 <= 1 || a.P50 >= 100 {
		t.Errorf("typical p50 %v not between the fast and slow runs", a.P50)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric name and unit against the charset the
// benchmark contract allows, and BENCHMARK.json against the code.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q outside the allowed charset", d.name)
		}
		if !unitRE.MatchString(d.unit) {
			t.Errorf("unit %q of %s outside the allowed charset", d.unit, d.name)
		}
		if seen[d.name] {
			t.Errorf("metric %s defined twice", d.name)
		}
		seen[d.name] = true
	}

	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	match := func(kind string, got []entry, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(got), len(want))
		}
		for i, e := range got {
			if e.Name != want[i].name || e.Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), code %s (%s)", kind, i, e.Name, e.Unit, want[i].name, want[i].unit)
			}
			if e.Better != "higher" && e.Better != "lower" {
				t.Errorf("%s: better %q", e.Name, e.Better)
			}
			if bounded != (e.Bound != nil) || (e.Bound != nil && (*e.Bound <= 0 || *e.Bound > 0.25)) {
				t.Errorf("%s: bad bound %v", e.Name, e.Bound)
			}
		}
	}
	match("end_to_end", bench.EndToEnd, endToEnd, true)
	match("per_layer", bench.PerLayer, perLayer, false)
	for _, w := range bench.Workloads {
		if _, batch := batchSpecs[w.Name]; !batch && w.Name != serviceCold && w.Name != serviceHot {
			t.Errorf("BENCHMARK.json workload %q is not one the command runs", w.Name)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
}

// TestTamperedSummaryFails: a service reply whose summary differs from an
// in-process run of the same spec is counted as a failure; the untouched
// one passes.
func TestTamperedSummaryFails(t *testing.T) {
	p := workload.Params{Width: 32, Height: 32, Frames: 3, Seed: 5}
	spec := jobs.Spec{Alias: "ccs", Tech: gpusim.RE, Params: p}
	res, err := jobs.DefaultRun(context.Background(), spec, func(string, time.Duration) {})
	if err != nil {
		t.Fatal(err)
	}
	good := jobs.Summarize(res)
	bad := good
	bad.Cycles++

	for _, c := range []struct {
		summary jobs.ResultSummary
		failed  int
	}{{good, 0}, {bad, 1}} {
		rep := newReport()
		l := &svcLoad{rep: rep, jobs: []*svcJob{{alias: "ccs", params: p, done: true, summary: c.summary}}}
		checkService(l, 2)
		if rep.attempted != 1 || rep.failed != c.failed {
			t.Errorf("summary cycles %d: attempted %d failed %d, want 1 and %d",
				c.summary.Cycles, rep.attempted, rep.failed, c.failed)
		}
	}
}

// TestServicePlan: every third cold job is an upload, every key is new, the
// hot plan has no uploads, and the seed moves the mix.
func TestServicePlan(t *testing.T) {
	cold, _, err := svcPlan(1, 30, true)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i, j := range cold {
		if j.upload != (i%3 == 2) {
			t.Errorf("job %d: upload %v", i, j.upload)
		}
		if seen[string(j.body)] {
			t.Errorf("job %d (%s) repeats an earlier body", i, j.alias)
		}
		seen[string(j.body)] = true
	}
	hot, _, err := svcPlan(1, 12, false)
	if err != nil {
		t.Fatal(err)
	}
	other, _, err := svcPlan(2, 12, false)
	if err != nil {
		t.Fatal(err)
	}
	moved := false
	for i, j := range hot {
		if j.upload {
			t.Errorf("hot job %d is an upload", i)
		}
		moved = moved || j.alias != other[i].alias
	}
	if !moved {
		t.Error("seeds 1 and 2 give the same alias order")
	}
}

func TestForEachVisitsEachIndexOnce(t *testing.T) {
	const n = 100
	var hits [n]atomic.Int32
	forEach(n, 3, func(i int) { hits[i].Add(1) })
	for i := range hits {
		if got := hits[i].Load(); got != 1 {
			t.Errorf("index %d visited %d times", i, got)
		}
	}
}

// TestTamperedTotalsFail: a batch run whose totals differ from the recorded
// expectation, or from the first pass, fails its check.
func TestTamperedTotalsFail(t *testing.T) {
	k := runKey{"ccs", gpusim.RE}
	want := simTotals{Frames: 20, TilesTotal: 10200, Cycles: 12345}
	exp := &expectedWorkload{Runs: map[string]simTotals{k.String(): want}}

	rep := newReport()
	first := map[runKey]simTotals{}
	checkPass(rep, passOut{runs: []runOut{{key: k, simulation: simulation{totals: want}}}}, first, exp)
	if rep.failed != 0 {
		t.Fatalf("untouched totals failed %d checks", rep.failed)
	}
	tampered := want
	tampered.Cycles++
	checkPass(rep, passOut{runs: []runOut{{key: k, simulation: simulation{totals: tampered}}}}, first, exp)
	if rep.failed != 2 { // differs from the first pass and from the expectation
		t.Errorf("tampered totals failed %d checks, want 2", rep.failed)
	}
}

// TestBestOfPasses: each frame and each run keeps its fastest time over the
// passes, whatever order the passes ran the matrix in.
func TestBestOfPasses(t *testing.T) {
	a, b := runKey{"ccs", gpusim.Baseline}, runKey{"mst", gpusim.TE}
	run := func(k runKey, wall time.Duration, frames ...time.Duration) runOut {
		return runOut{key: k, wall: wall, simulation: simulation{frames: frames}}
	}
	passes := []passOut{
		{runs: []runOut{run(a, 50, 10, 30), run(b, 70, 20, 20)}},
		{runs: []runOut{run(b, 60, 25, 15), run(a, 90, 40, 12)}},
	}
	best := bestOf(passes)
	if got := best.frames[a]; got[0] != 10 || got[1] != 12 {
		t.Errorf("%s frames %v, want [10 12]", a, got)
	}
	if got := best.frames[b]; got[0] != 20 || got[1] != 15 {
		t.Errorf("%s frames %v, want [20 15]", b, got)
	}
	if best.frameCount() != 4 || best.frameTime() != 57 || best.runTime() != 110 {
		t.Errorf("frames %d, frame time %v, run time %v; want 4, 57, 110",
			best.frameCount(), best.frameTime(), best.runTime())
	}
	if passes[0].runs[0].frames[1] != 30 {
		t.Error("bestOf changed a pass's frame times")
	}
}

func TestExpectedRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "expected.json")
	p := newBatchPlan("render", 1)
	k := runKey{"hop", gpusim.Memo}
	runs := map[runKey]simTotals{k: {Frames: 4, EnergyMJ: 1.25, FBCRC: 7}}
	if err := writeExpected(path, p, runs); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := parseExpected(b)
	if err != nil {
		t.Fatal(err)
	}
	got := f.Workloads["render"]
	if f.Seed != 1 || got.Window != p.spec.window || got.Runs[k.String()] != runs[k] {
		t.Errorf("round trip: %+v", f)
	}
}

// TestBalancedWarmup: the seed moves each alias's window, but the total
// warm-up work is the same for every seed.
func TestBalancedWarmup(t *testing.T) {
	total := func(seed int64) (int, map[string]int) {
		p := newBatchPlan("render", seed)
		n := 0
		for _, w := range p.warm {
			n += w
		}
		return n, p.warm
	}
	a, wa := total(1)
	moved := false
	for seed := int64(2); seed < 6; seed++ {
		b, wb := total(seed)
		if a != b {
			t.Errorf("seed %d: %d warm-up frames, seed 1: %d", seed, b, a)
		}
		for alias := range wa {
			if wa[alias] != wb[alias] {
				moved = true
			}
		}
	}
	if !moved {
		t.Error("no seed moved any alias's window")
	}
}
