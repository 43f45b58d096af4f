package main

import (
	"bytes"
	"syscall"
	"unsafe"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"rendelim/internal/api"
	"rendelim/internal/energy"
	"rendelim/internal/gpusim"
	"rendelim/internal/obs"
	"rendelim/internal/stats"
	"rendelim/internal/trace"
	"rendelim/internal/workload"
)

// batchSpec fixes one in-process workload: which techniques run over the ten
// Table II aliases, and the frame window each run times.
type batchSpec struct {
	techs    []gpusim.Technique
	window   int // timed frames per run
	warmMin  int // fewest untimed warm-up frames before the window
	warmSpan int // the seed adds [0, warmSpan) warm-up frames per alias
	// refBaseline: the matrix has no Baseline run, so one runs untimed after
	// the timed phase as the framebuffer-CRC reference.
	refBaseline bool
}

const batchWidth, batchHeight = 480, 272

var batchSpecs = map[string]batchSpec{
	"render": {
		techs:  []gpusim.Technique{gpusim.Baseline, gpusim.TE, gpusim.Memo},
		window: 4, warmMin: 2, warmSpan: 2,
	},
	"eliminate": {
		techs:  []gpusim.Technique{gpusim.RE},
		window: 20, warmMin: 2, warmSpan: 2,
		refBaseline: true,
	},
}

// runKey names one (alias, technique) run of the matrix.
type runKey struct {
	alias string
	tech  gpusim.Technique
}

func (k runKey) String() string { return k.alias + "/" + k.tech.String() }

// simTotals are a run's exact simulated counts over its timed window, plus
// the final framebuffer CRC. They repeat exactly for a fixed seed.
type simTotals struct {
	Frames           uint64  `json:"frames"`
	TilesTotal       uint64  `json:"tiles_total"`
	TilesSkipped     uint64  `json:"tiles_skipped"`
	FragsRasterized  uint64  `json:"frags_rasterized"`
	FragsShaded      uint64  `json:"frags_shaded"`
	FragsMemoReused  uint64  `json:"frags_memo_reused"`
	FlushesDone      uint64  `json:"flushes_done"`
	FlushesSkipped   uint64  `json:"flushes_skipped"`
	Vertices         uint64  `json:"vertices"`
	Triangles        uint64  `json:"triangles"`
	Cycles           uint64  `json:"cycles"`
	DRAMBytes        uint64  `json:"dram_bytes"`
	EnergyMJ         float64 `json:"energy_mj"`
	EqInputDiffColor uint64  `json:"eq_input_diff_color"`
	FBCRC            uint32  `json:"fb_crc"`
}

func totalsOf(st gpusim.Stats, frames int, fbcrc uint32) simTotals {
	return simTotals{
		Frames:           uint64(frames),
		TilesTotal:       st.TilesTotal,
		TilesSkipped:     st.TilesSkipped,
		FragsRasterized:  st.FragsRasterized,
		FragsShaded:      st.FragsShaded,
		FragsMemoReused:  st.FragsMemoReused,
		FlushesDone:      st.FlushesDone,
		FlushesSkipped:   st.FlushesSkipped,
		Vertices:         st.Vertices,
		Triangles:        st.Triangles,
		Cycles:           st.TotalCycles(),
		DRAMBytes:        st.TotalTraffic(),
		EnergyMJ:         energy.Default().Compute(st.Activity).Total() * 1e3,
		EqInputDiffColor: st.TileClasses[gpusim.TileEqInputDiffColor],
		FBCRC:            fbcrc,
	}
}

// batchPlan is everything the seed decides: each alias's warm-up length
// (which picks its animation window) and, pass by pass, the run order.
type batchPlan struct {
	name  string
	spec  batchSpec
	seed  int64
	suite []workload.Benchmark
	warm  map[string]int
	rng   *rand.Rand
}

func newBatchPlan(name string, seed int64) batchPlan {
	p := batchPlan{
		name:  name,
		spec:  batchSpecs[name],
		seed:  seed,
		suite: workload.Suite(),
		warm:  map[string]int{},
		rng:   rand.New(rand.NewSource(seed)),
	}
	// The warm-up lengths are a fixed multiset dealt to the aliases in seeded
	// order: the seed moves each alias's window while the total number of
	// warm-up frames stays the same.
	perm := p.rng.Perm(len(p.suite))
	for i, b := range p.suite {
		p.warm[b.Alias] = p.spec.warmMin + perm[i]%p.spec.warmSpan
	}
	return p
}

func (p *batchPlan) params(alias string) workload.Params {
	return workload.Params{
		Width: batchWidth, Height: batchHeight,
		Frames: p.warm[alias] + p.spec.window,
		Seed:   p.seed,
	}
}

// runOrder returns the next pass's seeded permutation of the matrix.
func (p *batchPlan) runOrder() []runKey {
	var keys []runKey
	for _, b := range p.suite {
		for _, t := range p.spec.techs {
			keys = append(keys, runKey{b.Alias, t})
		}
	}
	p.rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// runOut is one run's measurements: its untraced simulation (allocations
// counted only in traced passes) and, in traced passes, the repeat with
// Config.Tracer set.
type runOut struct {
	simulation
	key  runKey
	wall time.Duration // New, warm-up and window
	err  error

	tracedFrames time.Duration
	tracedTotals simTotals
	spans        spanTotals
}

// passOut is one pass over the whole matrix.
type passOut struct {
	runs   []runOut // in run order
	builds []time.Duration
	traces map[string]*api.Trace

	// Traced passes only: trace.Decode over each alias's encoded trace.
	decode      time.Duration
	decodeBytes int
	codecErrs   []error
}

func (po passOut) setup() time.Duration {
	var d time.Duration
	for _, b := range po.builds {
		d += b
	}
	for _, r := range po.runs {
		d += r.newDur
	}
	return d
}

// runPass builds every alias's trace and runs the matrix on workers
// goroutines, each with one simulation in flight.
func runPass(p *batchPlan, workers int, traced bool) passOut {
	po := passOut{traces: map[string]*api.Trace{}}
	for _, b := range p.suite {
		t0 := time.Now()
		tr := b.Build(p.params(b.Alias))
		po.builds = append(po.builds, time.Since(t0))
		po.traces[b.Alias] = tr
	}
	if traced {
		for _, b := range p.suite {
			po.timeDecode(po.traces[b.Alias])
		}
	}

	order := p.runOrder()
	po.runs = make([]runOut, len(order))
	forEach(len(order), workers, func(i int) {
		k := order[i]
		po.runs[i] = runOne(po.traces[k.alias], k, p.warm[k.alias], traced)
	})
	return po
}

// timeDecode encodes tr, times trace.Decode of the bytes, and checks that
// the decoded trace encodes back to the same bytes.
func (po *passOut) timeDecode(tr *api.Trace) {
	var enc bytes.Buffer
	if err := trace.Encode(&enc, tr); err != nil {
		po.codecErrs = append(po.codecErrs, fmt.Errorf("encode %s: %w", tr.Name, err))
		return
	}
	t0 := time.Now()
	dec, err := trace.Decode(bytes.NewReader(enc.Bytes()))
	po.decode += time.Since(t0)
	po.decodeBytes += enc.Len()
	if err != nil {
		po.codecErrs = append(po.codecErrs, fmt.Errorf("decode %s: %w", tr.Name, err))
		return
	}
	var again bytes.Buffer
	if err := trace.Encode(&again, dec); err != nil || !bytes.Equal(again.Bytes(), enc.Bytes()) {
		po.codecErrs = append(po.codecErrs, fmt.Errorf("%s: decoded trace does not re-encode to the same bytes", tr.Name))
	}
}

// simulation is one simulator's pass over a trace: gpusim.New, untimed
// warm-up frames, then the timed window.
type simulation struct {
	newDur              time.Duration
	frames              []time.Duration // RunFrame of each window frame
	cpu                 []time.Duration
	totals              simTotals
	mallocs, allocBytes uint64 // over the window, when counted
}

// simulate runs a new simulator with cfg over tr: warm untimed frames, then
// each remaining frame timed. countAllocs reads the process-wide allocation
// counters around the window.
func simulate(tr *api.Trace, cfg gpusim.Config, warm int, countAllocs bool) (simulation, error) {
	var s simulation
	t0 := time.Now()
	sim, err := gpusim.New(tr, cfg)
	s.newDur = time.Since(t0)
	if err != nil {
		return s, err
	}
	for f := 0; f < warm; f++ {
		sim.RunFrame(&tr.Frames[f])
	}
	s.frames = make([]time.Duration, 0, len(tr.Frames)-warm)
	var ms0, ms1 runtime.MemStats
	if countAllocs {
		runtime.ReadMemStats(&ms0)
	}
	var total gpusim.Stats
	for f := warm; f < len(tr.Frames); f++ {
		t, c := time.Now(), threadCPU()
		st := sim.RunFrame(&tr.Frames[f])
		s.frames = append(s.frames, time.Since(t))
		s.cpu = append(s.cpu, threadCPU()-c)
		total.Add(st)
	}
	if countAllocs {
		runtime.ReadMemStats(&ms1)
		s.mallocs = ms1.Mallocs - ms0.Mallocs
		s.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	}
	s.totals = totalsOf(total, len(s.frames), sim.FrameBufferCRC())
	return s, nil
}

// runOne simulates warm untimed frames, then times each frame of the window.
// A traced run also reads allocation counters around the timed frames and
// repeats the run with a tracer, folding that tracer's spans over the window
// and then dropping it, so trace memory stays bounded by one run.
func runOne(tr *api.Trace, k runKey, warm int, traced bool) runOut {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out := runOut{key: k}
	cfg := gpusim.DefaultConfig()
	cfg.Technique = k.tech
	t0 := time.Now()
	s, err := simulate(tr, cfg, warm, traced)
	out.wall = time.Since(t0)
	out.simulation = s
	if err != nil {
		out.err = fmt.Errorf("%s: %w", k, err)
		return out
	}
	if !traced {
		return out
	}

	cfg.Tracer = obs.NewTracer()
	ts, err := simulate(tr, cfg, warm, false)
	if err != nil {
		out.err = fmt.Errorf("%s traced: %w", k, err)
		return out
	}
	for _, d := range ts.frames {
		out.tracedFrames += d
	}
	out.tracedTotals = ts.totals
	events := cfg.Tracer.Events()
	if from := frameStart(events, warm); from >= 0 {
		out.spans = foldSpans(events, from)
	} else {
		out.err = fmt.Errorf("%s traced: no frame span for frame %d", k, warm)
	}
	return out
}

// checkPass applies the per-pass output checks: no eq-input-diff-color
// tiles; every technique's final framebuffer CRC equal to Baseline's on the
// same trace; traced and untraced runs identical; every pass identical to
// the first; and, at the seed the expected totals were recorded with,
// equality with them.
func checkPass(rep *report, po passOut, first map[runKey]simTotals, exp *expectedWorkload) {
	base := map[string]uint32{}
	for _, r := range po.runs {
		if r.err == nil && r.key.tech == gpusim.Baseline {
			base[r.key.alias] = r.totals.FBCRC
		}
	}
	for _, r := range po.runs {
		rep.check(r.err == nil, "%v", r.err)
		if r.err != nil {
			continue
		}
		rep.check(r.totals.EqInputDiffColor == 0, "%s: %d eq-input-diff-color tiles", r.key, r.totals.EqInputDiffColor)
		if crc, ok := base[r.key.alias]; ok && r.key.tech != gpusim.Baseline {
			rep.check(r.totals.FBCRC == crc, "%s: framebuffer CRC %08x, Baseline %08x", r.key, r.totals.FBCRC, crc)
		}
		if r.spans.count != nil {
			rep.check(r.tracedTotals == r.totals, "%s: traced run differs from untraced", r.key)
		}
		if want, ok := first[r.key]; ok {
			rep.check(r.totals == want, "%s: totals differ from the first pass", r.key)
		} else {
			first[r.key] = r.totals
		}
		if exp != nil {
			want, ok := exp.Runs[r.key.String()]
			rep.check(ok && r.totals == want, "%s: totals %+v, expected %+v", r.key, r.totals, want)
		}
	}
	for _, err := range po.codecErrs {
		rep.check(false, "%v", err)
	}
}

// checkBaselineCRC runs Baseline untimed over each alias's trace and checks
// the matrix runs' final framebuffer CRCs against it.
func checkBaselineCRC(rep *report, p *batchPlan, po passOut, workers int) {
	crcs := make([]uint32, len(p.suite))
	errs := make([]error, len(p.suite))
	forEach(len(p.suite), workers, func(i int) {
		sim, err := gpusim.New(po.traces[p.suite[i].Alias], gpusim.DefaultConfig())
		if err != nil {
			errs[i] = err
			return
		}
		crcs[i] = sim.Run().FBCRC
	})
	byAlias := map[string]int{}
	for i, b := range p.suite {
		byAlias[b.Alias] = i
		rep.check(errs[i] == nil, "%s/base reference: %v", b.Alias, errs[i])
	}
	for _, r := range po.runs {
		if r.err != nil {
			continue
		}
		i := byAlias[r.key.alias]
		rep.check(r.totals.FBCRC == crcs[i], "%s: framebuffer CRC %08x, Baseline %08x", r.key, r.totals.FBCRC, crcs[i])
	}
}

// runBatch starts passes over the matrix while the measured seconds last
// (always at least one), then derives the metrics from each frame's and
// each run's fastest time over the passes.
func runBatch(o options) (*report, error) {
	p := newBatchPlan(o.workload, o.seed)
	exp, err := loadExpected(o, p)
	if err != nil {
		return nil, err
	}
	workers := concurrency()
	if o.traced {
		// One simulation at a time: allocation counters are process-wide,
		// and span self times should not include another run's contention.
		workers = 1
	}

	rep := newReport()
	first := map[runKey]simTotals{}
	// Whole passes keep the matrix mix fixed; passes start until the
	// measured seconds are used, so a run overruns by less than one pass.
	var passes []passOut
	start := time.Now()
	budget := time.Duration(o.seconds) * time.Second
	for len(passes) == 0 || time.Since(start) < budget {
		po := runPass(&p, workers, o.traced)
		checkPass(rep, po, first, exp)
		passes = append(passes, po)
	}
	measured := time.Since(start)
	last := passes[len(passes)-1]
	if p.spec.refBaseline {
		checkBaselineCRC(rep, &p, last, workers)
	}

	if o.expected != "" {
		if err := writeExpected(o.expected, p, first); err != nil {
			return nil, err
		}
	}

	var fps, setup, frameMS []float64
	for _, po := range passes {
		var frames int
		var frameDur time.Duration
		for _, r := range po.runs {
			frames += len(r.frames)
			for _, d := range r.frames {
				frameDur += d
				frameMS = append(frameMS, ms(d))
			}
		}
		fps = append(fps, float64(frames*workers)/frameDur.Seconds())
		setup = append(setup, po.setup().Seconds())
	}
	best := bestOf(passes)
	{
		var cf []float64
		bc := map[runKey][]time.Duration{}
		for _, po := range passes {
			var n int
			var d time.Duration
			for _, r := range po.runs {
				n += len(r.cpu)
				fs, ok := bc[r.key]
				if !ok {
					fs = append([]time.Duration(nil), r.cpu...)
					bc[r.key] = fs
				}
				for i, x := range r.cpu {
					d += x
					fs[i] = min(fs[i], x)
				}
			}
			cf = append(cf, float64(n*workers)/d.Seconds())
		}
		var n int
		var d time.Duration
		for _, fs := range bc {
			for _, x := range fs {
				n++
				d += x
			}
		}
		rep.record["x_cpu_pass_fps"] = cf
		rep.record["x_cpu_best_fps"] = float64(n*workers) / d.Seconds()
	}
	lat := typicalLatency(best.frameMS())
	v := rep.values
	v["frames_per_s"] = float64(best.frameCount()*workers) / best.frameTime().Seconds()
	v["requests_per_s"] = float64(len(best.wall)*workers) / best.runTime().Seconds()
	v["p50_ms"] = lat.P50
	v["p90_ms"] = lat.P90
	v["setup_s"] = median(setup)
	v["max_rss_mb"] = selfMaxRSSMiB()

	sum := sumTotals(first)
	if o.traced {
		rep.record["spans_ms"] = foldedMS(layerMetrics(v, passes, frameMS, sum))
	}

	var techs []string
	for _, t := range p.spec.techs {
		techs = append(techs, t.String())
	}
	r := rep.record
	r["resolution"] = fmt.Sprintf("%dx%d", batchWidth, batchHeight)
	r["techniques"] = techs
	r["window_frames"] = p.spec.window
	r["warmup_frames"] = p.warm
	r["concurrent_runs"] = workers
	r["passes"] = len(passes)
	r["runs_per_pass"] = len(last.runs)
	r["measured_s"] = measured.Seconds()
	r["frame_latency"] = lat
	r["pass_frames_per_s"] = fps
	r["pass_setup_s"] = setup
	r["sim_totals_per_pass"] = sum
	return rep, nil
}

// bestTimes holds each run's fastest time over a batch run's passes: of
// every window frame, and of the whole run (gpusim.New, warm-up and window).
// Every pass repeats the same deterministic work in a new order, and host
// interference only ever adds time, so the fastest of the repeats is the
// frame's cost with the least interference; a slow spell has to cover every
// pass of a frame to move it.
type bestTimes struct {
	frames map[runKey][]time.Duration
	wall   map[runKey]time.Duration
}

func bestOf(passes []passOut) bestTimes {
	b := bestTimes{frames: map[runKey][]time.Duration{}, wall: map[runKey]time.Duration{}}
	for _, po := range passes {
		for _, r := range po.runs {
			if r.err != nil {
				continue
			}
			fs, ok := b.frames[r.key]
			if !ok {
				b.frames[r.key] = append([]time.Duration(nil), r.frames...)
				b.wall[r.key] = r.wall
				continue
			}
			for i, d := range r.frames[:min(len(r.frames), len(fs))] {
				fs[i] = min(fs[i], d)
			}
			b.wall[r.key] = min(b.wall[r.key], r.wall)
		}
	}
	return b
}

func (b bestTimes) frameCount() int {
	n := 0
	for _, fs := range b.frames {
		n += len(fs)
	}
	return n
}

func (b bestTimes) frameTime() time.Duration {
	var d time.Duration
	for _, fs := range b.frames {
		for _, f := range fs {
			d += f
		}
	}
	return d
}

func (b bestTimes) runTime() time.Duration {
	var d time.Duration
	for _, w := range b.wall {
		d += w
	}
	return d
}

// frameMS returns each run's fastest frame times in milliseconds.
func (b bestTimes) frameMS() [][]float64 {
	out := make([][]float64, 0, len(b.frames))
	for _, fs := range b.frames {
		g := make([]float64, len(fs))
		for i, d := range fs {
			g[i] = ms(d)
		}
		out = append(out, g)
	}
	return out
}

// sumTotals adds per-run totals in a fixed (sorted) order, so the float
// energy sum repeats bit for bit.
func sumTotals(runs map[runKey]simTotals) simTotals {
	keys := make([]runKey, 0, len(runs))
	for k := range runs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	var s simTotals
	for _, k := range keys {
		t := runs[k]
		s.Frames += t.Frames
		s.TilesTotal += t.TilesTotal
		s.TilesSkipped += t.TilesSkipped
		s.FragsRasterized += t.FragsRasterized
		s.FragsShaded += t.FragsShaded
		s.FragsMemoReused += t.FragsMemoReused
		s.FlushesDone += t.FlushesDone
		s.FlushesSkipped += t.FlushesSkipped
		s.Vertices += t.Vertices
		s.Triangles += t.Triangles
		s.Cycles += t.Cycles
		s.DRAMBytes += t.DRAMBytes
		s.EnergyMJ += t.EnergyMJ
		s.EqInputDiffColor += t.EqInputDiffColor
	}
	return s
}

// layerMetrics derives the per-layer metrics of a traced batch run. Span
// times come from the traced repeat of each run, divided by that run's exact
// counts; frame time and allocations from the untraced one. It returns the
// folded spans for the record.
func layerMetrics(v map[string]float64, passes []passOut, frameMS []float64, sum simTotals) spanTotals {
	spans := newSpanTotals()
	var counts simTotals
	var builds, news []float64
	var untraced, tracedDur, decode time.Duration
	var decodeBytes int
	var mallocs, allocBytes uint64
	for _, po := range passes {
		for _, b := range po.builds {
			builds = append(builds, ms(b))
		}
		decode += po.decode
		decodeBytes += po.decodeBytes
		for _, r := range po.runs {
			if r.err != nil {
				continue
			}
			news = append(news, ms(r.newDur))
			for _, d := range r.frames {
				untraced += d
			}
			tracedDur += r.tracedFrames
			mallocs += r.mallocs
			allocBytes += r.allocBytes
			spans.add(r.spans)
			c := r.tracedTotals
			counts.Frames += c.Frames
			counts.TilesTotal += c.TilesTotal
			counts.TilesSkipped += c.TilesSkipped
			counts.FragsRasterized += c.FragsRasterized
			counts.FlushesDone += c.FlushesDone
			counts.Vertices += c.Vertices
			counts.Triangles += c.Triangles
		}
	}
	const nsPerUS = 1e3
	frame := spans.total["frame"]
	fragment := spans.self["fragment-shading"]
	commit := spans.self["raster"] + spans.self["raster-tile"] + spans.self["dram-flush"]
	geometry := spans.self["geometry"] + spans.self["vertex-shading"] + spans.self["tiling"]

	v["workload.build_ms"] = stats.Mean(builds)
	v["gpusim.new_ms"] = stats.Mean(news)
	v["gpusim.frame_ms"] = median(frameMS)
	v["gpusim.allocs_per_frame"] = ratio(float64(mallocs), float64(counts.Frames))
	v["gpusim.alloc_bytes_per_frame"] = ratio(float64(allocBytes), float64(counts.Frames))
	v["gpusim.fragment_ns_per_frag"] = ratio(fragment*nsPerUS, float64(counts.FragsRasterized))
	v["gpusim.commit_ns_per_tile"] = ratio(spans.self["raster"]*nsPerUS, float64(counts.TilesTotal-counts.TilesSkipped))
	v["gpusim.flush_ns_per_flush"] = ratio(spans.total["dram-flush"]*nsPerUS, float64(counts.FlushesDone))
	v["gpusim.re_check_ns_per_tile"] = ratio(spans.total["re-check"]*nsPerUS, float64(counts.TilesTotal))
	v["gpusim.tiling_ns_per_tri"] = ratio(spans.total["tiling"]*nsPerUS, float64(counts.Triangles))
	v["gpusim.vertex_ns_per_vertex"] = ratio(spans.total["vertex-shading"]*nsPerUS, float64(counts.Vertices))
	v["gpusim.fragment_share"] = ratio(fragment, frame)
	v["gpusim.commit_share"] = ratio(commit, frame)
	v["gpusim.geometry_share"] = ratio(geometry, frame)
	v["gpusim.re_check_share"] = ratio(spans.total["re-check"], frame)
	v["gpusim.trace_overhead"] = ratio(tracedDur.Seconds(), untraced.Seconds())
	v["trace.decode_ns_per_byte"] = ratio(float64(decode.Nanoseconds()), float64(decodeBytes))

	v["sim.frames"] = float64(sum.Frames)
	v["sim.tiles_rendered"] = float64(sum.TilesTotal - sum.TilesSkipped)
	v["sim.tiles_skipped"] = float64(sum.TilesSkipped)
	v["sim.skip_ratio"] = ratio(float64(sum.TilesSkipped), float64(sum.TilesTotal))
	v["sim.frags_shaded"] = float64(sum.FragsShaded)
	v["sim.frags_memo_reused"] = float64(sum.FragsMemoReused)
	v["sim.flushes_skipped"] = float64(sum.FlushesSkipped)
	v["sim.vertices"] = float64(sum.Vertices)
	v["sim.triangles"] = float64(sum.Triangles)
	v["sim.cycles"] = float64(sum.Cycles)
	v["sim.dram_bytes"] = float64(sum.DRAMBytes)
	v["sim.energy_mj"] = sum.EnergyMJ
	return spans
}

func threadCPU() time.Duration {
	var ts syscall.Timespec
	syscall.RawSyscall(syscall.SYS_CLOCK_GETTIME, 3, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}
