package gpusim

import (
	"fmt"
	"testing"

	"rendelim/internal/api"
	"rendelim/internal/workload"
)

// The zero-allocation contract of the frame hot path (see DESIGN.md "Memory
// discipline"): after warm-up, the steady-state frame loop performs
//
//   - 0 allocations per tile in the decide and render stages, under every
//     technique — pooled access logs, worker fragment scratch and memo
//     tables absorb all per-tile work;
//   - 0 allocations per frame with serial raster execution;
//   - only O(workers) bounded allocations per frame with parallel raster
//     execution (the goroutine spawns and their closures).
//
// These tests are the enforcement teeth: they fail the build if a change
// reintroduces allocator churn into the frame loop. perfbench's traced
// render and eliminate runs report gpusim.allocs_per_frame alongside.

// warmSim builds a simulator and runs the whole trace through it twice, so
// every pooled buffer (access logs, binner bins, geometry scratch, memo
// tables) has grown to the workload's high-water mark.
func warmSim(t testing.TB, tech Technique, workers int) (*Simulator, *workloadTrace) {
	t.Helper()
	b, err := workload.ByAlias("ccs")
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
	for pass := 0; pass < 2; pass++ {
		for i := range tr.Frames {
			sim.RunFrame(&tr.Frames[i])
		}
	}
	return sim, &workloadTrace{tr: tr}
}

// workloadTrace cycles trace frames for steady-state measurement.
type workloadTrace struct {
	tr *api.Trace
	i  int
}

func (w *workloadTrace) next() *api.Frame {
	f := &w.tr.Frames[w.i%len(w.tr.Frames)]
	w.i++
	return f
}

// TestAllocsPerTileDecideRender asserts the core budget: the decide+render
// stages allocate nothing per tile in steady state, for every technique.
func TestAllocsPerTileDecideRender(t *testing.T) {
	for _, tech := range []Technique{Baseline, RE, TE, Memo} {
		t.Run(tech.String(), func(t *testing.T) {
			s, _ := warmSim(t, tech, 1)
			n := s.fbuf.NumTiles()
			w := s.workers[0]
			// The loop decides the last frame's tiles again, which a frame
			// never does: nothing may be reused, and every tile renders.
			s.reuse = false
			pass := func() {
				tiles := s.arena.tiles(n)
				for tile := 0; tile < n; tile++ {
					res := &tiles[tile]
					s.decideTile(tile, res)
					if res.renders() {
						w.renderTile(tile, res, nil)
					}
				}
			}
			// The bare decide/render loop differs from a full frame (no
			// frameIdx advance, so Memo sees no cross-frame reuse and
			// inserts more); two passes let the pooled tables reach this
			// loop's own high-water mark before measuring.
			pass()
			pass()
			avg := testing.AllocsPerRun(10, pass)
			if avg != 0 {
				t.Errorf("decide+render over %d tiles: %.1f allocs, want 0 (%.4f/tile)",
					n, avg, avg/float64(n))
			}
		})
	}
}

// TestAllocsPerFrameSerial asserts the whole frame loop — geometry, raster,
// commit, stats — is allocation-free in steady state with serial raster
// execution.
func TestAllocsPerFrameSerial(t *testing.T) {
	for _, tech := range []Technique{Baseline, RE, TE, Memo} {
		t.Run(tech.String(), func(t *testing.T) {
			s, frames := warmSim(t, tech, 1)
			avg := testing.AllocsPerRun(8, func() {
				s.RunFrame(frames.next())
			})
			if avg != 0 {
				t.Errorf("RunFrame: %.1f allocs/frame, want 0", avg)
			}
		})
	}
}

// TestAllocsPerFrameParallel asserts the parallel raster phase stays within
// its bounded per-frame budget: the only allocations permitted are the
// worker goroutine spawns and the coordination state they capture, which is
// O(workers) and independent of tile count or scene complexity.
func TestAllocsPerFrameParallel(t *testing.T) {
	for _, tech := range []Technique{Baseline, RE, TE, Memo} {
		t.Run(tech.String(), func(t *testing.T) {
			for _, workers := range []int{2, 4} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					s, frames := warmSim(t, tech, workers)
					avg := testing.AllocsPerRun(8, func() {
						s.RunFrame(frames.next())
					})
					// goroutine + closure per worker, plus the shared
					// WaitGroup and work counter; generous slack for
					// runtime bookkeeping.
					budget := float64(2*workers + 4)
					if avg > budget {
						t.Errorf("RunFrame(workers=%d): %.1f allocs/frame, budget %.0f", workers, avg, budget)
					}
				})
			}
		})
	}
}

// TestAllocsFrameBufferCRC: per-frame CRC checks ride the arena's pooled
// serialization buffer, so determinism soaks can sign every frame for free.
func TestAllocsFrameBufferCRC(t *testing.T) {
	s, _ := warmSim(t, Baseline, 1)
	s.FrameBufferCRC() // size the pooled buffer
	if avg := testing.AllocsPerRun(10, func() { s.FrameBufferCRC() }); avg != 0 {
		t.Errorf("FrameBufferCRC: %.1f allocs, want 0", avg)
	}
}

// TestAllocsCheckpoint: every component appends its state straight into
// one buffer that Checkpoint sizes from the simulator's contents, so taking
// a frame-boundary checkpoint makes one allocation, the blob itself.
func TestAllocsCheckpoint(t *testing.T) {
	b, err := workload.ByAlias("ccs")
	if err != nil {
		t.Fatal(err)
	}
	tr := b.Build(workload.Params{Width: 128, Height: 96, Frames: 4, Seed: 1})
	for _, tech := range []Technique{Baseline, RE, TE, Memo} {
		t.Run(tech.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Technique = tech
			sim, err := New(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				sim.RunFrame(&tr.Frames[i])
			}
			var blob []byte
			if avg := testing.AllocsPerRun(10, func() { blob = sim.Checkpoint() }); avg != 1 {
				t.Errorf("Checkpoint: %.1f allocs, want 1", avg)
			}
			if bound := sim.checkpointBound(); bound < len(blob) {
				t.Errorf("size bound %d B < blob %d B", bound, len(blob))
			}
			t.Logf("size bound %d B for a %d B blob", sim.checkpointBound(), len(blob))
		})
	}
}
