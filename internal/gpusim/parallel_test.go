package gpusim

import (
	"fmt"
	"strings"
	"testing"

	"rendelim/internal/obs"
	"rendelim/internal/workload"
)

// runWorkers runs one benchmark under one technique with the given tile-worker
// count and returns the run result plus the final displayed frame.
func runWorkers(t testing.TB, alias string, tech Technique, workers int) (Result, []uint32, []uint32) {
	t.Helper()
	b, err := workload.ByAlias(alias)
	if err != nil {
		t.Fatal(err)
	}
	tr := b.Build(workload.Params{Width: 96, Height: 64, Frames: 4, Seed: 1})
	cfg := DefaultConfig()
	cfg.Technique = tech
	cfg.TileWorkers = workers
	sim, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := sim.Run()
	return res, sim.FrameBufferSnapshot(), sim.SkipCounts()
}

// TestRasterParallelDeterminism is the core guarantee of the parallel raster
// phase: host parallelism must not change simulated results. For every Table
// II benchmark under all four techniques, an N-worker run must produce
// bit-identical per-frame Stats, Result totals, framebuffer pixels and skip
// counts to the serial run.
func TestRasterParallelDeterminism(t *testing.T) {
	suite := workload.Suite()
	if testing.Short() {
		suite = suite[:3]
	}
	for _, bm := range suite {
		for _, tech := range []Technique{Baseline, RE, TE, Memo} {
			t.Run(bm.Alias+"/"+tech.String(), func(t *testing.T) {
				ref, refFB, refSkips := runWorkers(t, bm.Alias, tech, 1)
				for _, workers := range []int{2, 8} {
					res, fbres, skips := runWorkers(t, bm.Alias, tech, workers)
					if res.Total != ref.Total {
						t.Errorf("workers=%d: Total diverges from serial:\n got %+v\nwant %+v", workers, res.Total, ref.Total)
					}
					if len(res.Frames) != len(ref.Frames) {
						t.Fatalf("workers=%d: frame count %d, want %d", workers, len(res.Frames), len(ref.Frames))
					}
					for i := range ref.Frames {
						if res.Frames[i] != ref.Frames[i] {
							t.Errorf("workers=%d frame %d: Stats diverge:\n got %+v\nwant %+v", workers, i, res.Frames[i], ref.Frames[i])
						}
					}
					for i := range refFB {
						if fbres[i] != refFB[i] {
							t.Errorf("workers=%d: pixel %d = %08x, want %08x", workers, i, fbres[i], refFB[i])
							break
						}
					}
					for i := range refSkips {
						if skips[i] != refSkips[i] {
							t.Errorf("workers=%d: skip count tile %d = %d, want %d", workers, i, skips[i], refSkips[i])
							break
						}
					}
				}
			})
		}
	}
}

// TestRasterParallelMoreWorkersThanTiles: a worker count beyond the tile
// count is clamped, not an error, and still reproduces the serial run.
func TestRasterParallelMoreWorkersThanTiles(t *testing.T) {
	ref, refFB, _ := runWorkers(t, "ccs", RE, 1)
	res, fbres, _ := runWorkers(t, "ccs", RE, 999)
	if res.Total != ref.Total {
		t.Errorf("workers=999: Total diverges from serial:\n got %+v\nwant %+v", res.Total, ref.Total)
	}
	for i := range refFB {
		if fbres[i] != refFB[i] {
			t.Fatalf("workers=999: pixel %d = %08x, want %08x", i, fbres[i], refFB[i])
		}
	}
}

// TestRasterParallelAutoWorkers: TileWorkers < 0 resolves to the host CPU
// count and matches the serial run bit for bit.
func TestRasterParallelAutoWorkers(t *testing.T) {
	ref, refFB, _ := runWorkers(t, "abi", Baseline, 1)
	res, fbres, _ := runWorkers(t, "abi", Baseline, -1)
	if res.Total != ref.Total {
		t.Errorf("auto workers: Total diverges from serial:\n got %+v\nwant %+v", res.Total, ref.Total)
	}
	for i := range refFB {
		if fbres[i] != refFB[i] {
			t.Fatalf("auto workers: pixel %d = %08x, want %08x", i, fbres[i], refFB[i])
		}
	}
}

// TestRasterParallelTraceBalanced: under parallel execution each raster
// worker emits spans on its own track; every track's Begin/End nesting must
// balance, and per-tile spans must land on worker tracks, not the pipeline
// track.
func TestRasterParallelTraceBalanced(t *testing.T) {
	b, err := workload.ByAlias("mst")
	if err != nil {
		t.Fatal(err)
	}
	tr := b.Build(workload.Params{Width: 96, Height: 64, Frames: 3, Seed: 1})
	cfg := DefaultConfig()
	cfg.Technique = Baseline
	cfg.TileWorkers = 4
	cfg.Tracer = obs.NewTracer()
	sim, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()

	depth := map[int]int{}
	workerTIDs := map[int]bool{}
	tileSpans := 0
	for _, e := range cfg.Tracer.Events() {
		switch e.Ph {
		case "M":
			if name, ok := e.Args["name"].(string); ok && len(name) > 13 && name[:13] == "raster worker" {
				workerTIDs[e.TID] = true
			}
		case "B":
			depth[e.TID]++
			if e.Name == "raster-tile" {
				tileSpans++
				if !workerTIDs[e.TID] {
					t.Errorf("raster-tile span on non-worker track tid=%d", e.TID)
				}
			}
		case "E":
			depth[e.TID]--
			if depth[e.TID] < 0 {
				t.Fatalf("unbalanced End on tid=%d", e.TID)
			}
		}
	}
	for tid, d := range depth {
		if d != 0 {
			t.Errorf("tid %d: %d unclosed spans", tid, d)
		}
	}
	if len(workerTIDs) == 0 {
		t.Error("no raster worker tracks registered")
	}
	if tileSpans == 0 {
		t.Error("no raster-tile spans recorded")
	}
}

// benchRunFrame measures whole-frame simulation throughput of tech on alias
// at 480×272, cycling through the given number of frames.
func benchRunFrame(b *testing.B, tech Technique, alias string, frames, workers int) {
	bm, err := workload.ByAlias(alias)
	if err != nil {
		b.Fatal(err)
	}
	tr := bm.Build(workload.Params{Width: 480, Height: 272, Frames: frames, Seed: 1})
	cfg := DefaultConfig()
	cfg.Technique = tech
	cfg.TileWorkers = workers
	sim, err := New(tr, cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.RunFrame(&tr.Frames[i%len(tr.Frames)])
	}
}

// BenchmarkRunFrame compares frame throughput across tile-worker counts
// (the speedup requires a multi-core host; results stay identical anywhere)
// on two scenes. mst is continuous motion: no tile repeats, so every tile
// renders, the raster phase carries the full load the workers are meant to
// spread, and tile reuse costs its bin compares alone. ccs is nearly
// static: 96.6% of its tiles repeat their previous frame's bin and reuse
// the last render. The unprefixed cases run Baseline over two frames; the
// memo/ cases run Memo over three, so that the frame two back, whose renders
// Memo reuses, is never the same trace frame.
func BenchmarkRunFrame(b *testing.B) {
	for _, alias := range []string{"mst", "ccs"} {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/workers=%d", alias, w), func(b *testing.B) { benchRunFrame(b, Baseline, alias, 2, w) })
		}
	}
	for _, alias := range []string{"mst", "ccs"} {
		for _, w := range []int{1, 2} {
			b.Run(fmt.Sprintf("memo/%s/workers=%d", alias, w), func(b *testing.B) { benchRunFrame(b, Memo, alias, 3, w) })
		}
	}
}

// A panic in a raster worker goroutine reaches RunFrame's caller, where a
// recover contains it; one that escaped the goroutine would end the
// process. Emptying the texture table after New makes the first rendered
// tile's texture binding index past it.
func TestRasterParallelWorkerPanicReachesCaller(t *testing.T) {
	b, err := workload.ByAlias("ccs")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.TileWorkers = 2
	sim, err := New(b.Build(workload.Params{Width: 64, Height: 48, Frames: 1, Seed: 1}), cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.textures = sim.textures[:0]
	var got any
	func() {
		defer func() { got = recover() }()
		sim.RunFrame(&sim.trace.Frames[0])
	}()
	if err, ok := got.(error); !ok || !strings.Contains(err.Error(), "index out of range") {
		t.Fatalf("recovered %v, want the worker's index-out-of-range panic", got)
	}
	for i, w := range sim.workers {
		if w.panicked != nil {
			t.Errorf("worker %d still holds %v", i, w.panicked)
		}
	}
}
