package gpusim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"rendelim/internal/api"
	"rendelim/internal/geom"
	"rendelim/internal/obs"
	"rendelim/internal/shader"
	"rendelim/internal/texture"
)

// halvesTrace draws a 32×32 screen of 4 tiles as two textured halves, each
// tinted by c4: the left half covers tiles 0 and 2 and is always white, the
// right half covers tiles 1 and 3 and takes right[f] in frame f.
func halvesTrace(right ...geom.Vec4) *api.Trace {
	const W, H = 32, 32
	tr := &api.Trace{
		Name: "halves", Width: W, Height: H,
		ClearColor: geom.V4(0, 0, 0, 1),
		Programs:   []*shader.Program{shader.TransformVS(2), shader.TexturedFS()},
		Textures: []api.TextureSpec{{Kind: api.TexChecker, W: 16, H: 16, Cell: 4,
			A: geom.V4(0.9, 0.8, 0.1, 1), B: geom.V4(0.1, 0.3, 0.9, 1), Filter: texture.Bilinear}},
	}
	ortho := geom.Ortho(0, W, 0, H, -1, 1)
	half := func(x0 float32) api.Draw {
		c := geom.V4(1, 1, 1, 1)
		p00, p10 := geom.V4(x0, 0, 0, 1), geom.V4(x0+W/2, 0, 0, 1)
		p01, p11 := geom.V4(x0, H, 0, 1), geom.V4(x0+W/2, H, 0, 1)
		uv00, uv10 := geom.V4(0, 0, 0, 0), geom.V4(1, 0, 0, 0)
		uv01, uv11 := geom.V4(0, 1, 0, 0), geom.V4(1, 1, 0, 0)
		return api.Draw{NumAttrs: 3, Data: []geom.Vec4{
			p00, c, uv00, p10, c, uv10, p11, c, uv11,
			p00, c, uv00, p11, c, uv11, p01, c, uv01,
		}}
	}
	for _, tint := range right {
		tr.Frames = append(tr.Frames, api.Frame{Commands: []api.Command{
			api.SetUniforms{First: 0, Values: []geom.Vec4{ortho.Row(0), ortho.Row(1), ortho.Row(2), ortho.Row(3)}},
			api.SetPipeline{VS: 0, FS: 1},
			api.SetUniforms{First: 4, Values: []geom.Vec4{geom.V4(1, 1, 1, 1)}},
			half(0),
			api.SetUniforms{First: 4, Values: []geom.Vec4{tint}},
			half(W / 2),
		}})
	}
	return tr
}

var (
	red  = geom.V4(1, 0.2, 0.2, 1)
	blue = geom.V4(0.2, 0.2, 1, 1)
)

// reuseRun is one run's per-frame statistics, displayed-framebuffer CRCs
// and reused tiles.
type reuseRun struct {
	stats  []Stats
	crcs   []uint32
	reused [][]int
}

// newSim builds a simulator of tr, failing the test on an error.
func newSim(t *testing.T, tr *api.Trace, tech Technique, workers int) *Simulator {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Technique = tech
	cfg.TileWorkers = workers
	sim, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

// runFrame runs frame f of the simulator's trace into r; with forget, the
// simulator first forgets its kept tiles, as Resume does.
func (r *reuseRun) runFrame(sim *Simulator, f int, forget bool) {
	if forget {
		sim.forgetTiles()
	}
	r.stats = append(r.stats, sim.RunFrame(&sim.trace.Frames[f]))
	r.crcs = append(r.crcs, sim.FrameBufferCRC())
	var tiles []int
	for tile, res := range sim.frameTiles(sim.frameIdx - 1) {
		if res.reused {
			tiles = append(tiles, tile)
		}
	}
	r.reused = append(r.reused, tiles)
}

// runReuse runs every frame of tr.
func runReuse(t *testing.T, tr *api.Trace, tech Technique, workers int, forget bool) reuseRun {
	t.Helper()
	sim := newSim(t, tr, tech, workers)
	var r reuseRun
	for f := range tr.Frames {
		r.runFrame(sim, f, forget)
	}
	return r
}

// sameFrames fails the test where got's statistics or pixels differ from
// want's, frame by frame.
func sameFrames(t *testing.T, got, want reuseRun) {
	t.Helper()
	for f := range want.stats {
		if got.stats[f] != want.stats[f] {
			t.Errorf("frame %d: Stats differ:\n got %+v\nwant %+v", f, got.stats[f], want.stats[f])
		}
		if got.crcs[f] != want.crcs[f] {
			t.Errorf("frame %d: framebuffer CRC %08x, want %08x", f, got.crcs[f], want.crcs[f])
		}
	}
}

// wantReused fails the test unless frame f reused exactly tiles.
func wantReused(t *testing.T, r reuseRun, f int, tiles ...int) {
	t.Helper()
	if !slices.Equal(r.reused[f], tiles) {
		t.Errorf("frame %d reused tiles %v, want %v", f, r.reused[f], tiles)
	}
}

// wantReusedEach fails the test unless each frame f reused exactly
// tiles[f].
func wantReusedEach(t *testing.T, r reuseRun, tiles [][]int) {
	t.Helper()
	for f := range tiles {
		wantReused(t, r, f, tiles[f]...)
	}
}

// allTiles are the 4 tiles of halvesTrace's screen.
var allTiles = []int{0, 1, 2, 3}

// forEachReuse runs body as a subtest for each technique that want names
// and each tile worker count, with that technique's want.
func forEachReuse[W any](t *testing.T, want map[Technique]W, body func(t *testing.T, tech Technique, workers int, want W)) {
	for _, tech := range []Technique{Baseline, TE, Memo} {
		w, ok := want[tech]
		if !ok {
			continue
		}
		for _, workers := range []int{1, 2} {
			t.Run(fmt.Sprintf("%s/workers=%d", tech, workers), func(t *testing.T) { body(t, tech, workers, w) })
		}
	}
}

// A tile reuses its kept render exactly when its bin repeats: changing one
// draw's c4 renders the 2 tiles that draw covers, and the run matches one
// that renders every tile. Memo compares with the frame two back, so its
// frames 2 and 3 both render the retinted half.
func TestTileReuseRendersOnlyChangedBins(t *testing.T) {
	tr := halvesTrace(red, red, blue, blue)
	forEachReuse(t, map[Technique][][]int{
		Baseline: {nil, allTiles, {0, 2}, allTiles},
		TE:       {nil, allTiles, {0, 2}, allTiles},
		Memo:     {nil, nil, {0, 2}, {0, 2}},
	}, func(t *testing.T, tech Technique, workers int, want [][]int) {
		got := runReuse(t, tr, tech, workers, false)
		sameFrames(t, got, runReuse(t, tr, tech, workers, true))
		wantReusedEach(t, got, want)
		if got.crcs[2] == got.crcs[1] {
			t.Error("frame 2's pixels ignore its new tint")
		}
	})
}

// reuploadTrace is halvesTrace(red ×7) with frame 3 re-uploading texture 0
// under the same id with other texels.
func reuploadTrace() *api.Trace {
	tr := halvesTrace(red, red, red, red, red, red, red)
	spec := tr.Textures[0]
	spec.A, spec.B = spec.B, geom.V4(0.2, 0.9, 0.3, 1)
	tr.Frames[3].Commands = append([]api.Command{api.UploadTexture{ID: 0, Spec: spec}}, tr.Frames[3].Commands...)
	return tr
}

// A frame that uploads reuses nothing, and its pixels follow the new
// texels. Baseline's next frame reuses the renders it made. Memo's next
// frame reuses nothing, since its kept renders predate the upload, and
// neither does the one after, whose pair's first frame rendered every tile.
func TestTileReuseUploadRendersAll(t *testing.T) {
	tr := reuploadTrace()
	forEachReuse(t, map[Technique][][]int{
		Baseline: {nil, allTiles, allTiles, nil, allTiles, allTiles, allTiles},
		Memo:     {nil, nil, allTiles, nil, nil, nil, allTiles},
	}, func(t *testing.T, tech Technique, workers int, want [][]int) {
		got := runReuse(t, tr, tech, workers, false)
		sameFrames(t, got, runReuse(t, tr, tech, workers, true))
		wantReusedEach(t, got, want)
		// Memo's frame 3, the second of a PFR pair, takes frame 2's
		// memoized colours, because the memo key names texture ids, not
		// texels; its frame 4 shows the new texels.
		shows := 3
		if tech == Memo {
			shows = 4
		}
		if got.crcs[shows] == got.crcs[2] {
			t.Errorf("frame %d's pixels ignore the new texels", shows)
		}
	})
}

// Resume forgets every kept tile: a simulator that already ran the whole
// trace, whose kept renders sample the texels that frame 3 uploads,
// resumes to frame 2, renders every tile of it with the older texels, and
// matches a simulator that resumed fresh.
func TestTileReuseResumeForgets(t *testing.T) {
	tr := reuploadTrace()
	forEachReuse(t, map[Technique][][]int{
		// Frames 2 to 6.
		Baseline: {nil, nil, allTiles, allTiles, allTiles},
		Memo:     {nil, nil, nil, nil, allTiles},
	}, func(t *testing.T, tech Technique, workers int, want [][]int) {
		src := newSim(t, tr, tech, workers)
		src.RunFrame(&tr.Frames[0])
		src.RunFrame(&tr.Frames[1])
		blob := src.Checkpoint()

		ran := newSim(t, tr, tech, workers)
		ran.Run()
		fresh := newSim(t, tr, tech, workers)
		var got, fromFresh reuseRun
		for _, r := range []struct {
			sim *Simulator
			run *reuseRun
		}{{ran, &got}, {fresh, &fromFresh}} {
			if err := r.sim.Resume(blob); err != nil {
				t.Fatal(err)
			}
			for f := 2; f < len(tr.Frames); f++ {
				r.run.runFrame(r.sim, f, false)
			}
		}
		sameFrames(t, got, fromFresh)
		wantReusedEach(t, got, want)
	})
}

// The compare is bit for bit: a uniform register that goes from +0 to −0
// blocks reuse, even one that no program reads.
func TestTileReuseNegativeZeroBlocks(t *testing.T) {
	tr := halvesTrace(red, red, red)
	negZero := float32(math.Copysign(0, -1))
	f := &tr.Frames[2]
	f.Commands = slices.Insert(f.Commands, len(f.Commands)-1,
		api.Command(api.SetUniforms{First: 5, Values: []geom.Vec4{geom.V4(negZero, 0, 0, 0)}}))
	got := runReuse(t, tr, Baseline, 1, false)
	sameFrames(t, got, runReuse(t, tr, Baseline, 1, true))
	wantReused(t, got, 2, 0, 2)
}

// RE skips repeated tiles by its own signature check: it reuses none.
func TestTileReuseNeverUnderRE(t *testing.T) {
	tr := halvesTrace(red, red, blue, blue)
	for _, workers := range []int{1, 2} {
		got := runReuse(t, tr, RE, workers, false)
		for f := range tr.Frames {
			wantReused(t, got, f)
		}
	}
}

// Memo reuses a tile on the second frame of a PFR pair only if it reused
// it on the first, since the second frame's render reads the memo table the
// first one filled. Frame 3 repeats frame 1's bins, but the right half's
// tiles 1 and 3 rendered in frame 2 with another tint, so frame 3 renders
// them; frame 4 repeats frame 2 whole, so frame 5 reuses every tile of
// frame 3, whose renders read a table with the same entries.
func TestTileReuseMemoPairs(t *testing.T) {
	tr := halvesTrace(red, red, blue, red, blue, red)
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := runReuse(t, tr, Memo, workers, false)
			sameFrames(t, got, runReuse(t, tr, Memo, workers, true))
			wantReusedEach(t, got, [][]int{nil, nil, {0, 2}, {0, 2}, allTiles, allTiles})
		})
	}
}

// A frame that a raster worker's panic ends leaves no tile to reuse: the
// next frame renders every tile (under Memo, the one after it too), and
// the run matches one that forgets its tiles before every frame. Emptying
// the texture table makes frame 2's first rendered tile panic after
// clearing its colours, which a reuse would show; Memo reuses tiles 0 and
// 2 in that frame before the panic.
func TestTileReusePanicFrameKeepsNothing(t *testing.T) {
	tr := halvesTrace(red, red, blue, blue, blue, blue)
	for _, tc := range []struct {
		tech Technique
		want [][]int // frames 0, 1, 3, 4 and 5
	}{
		{Baseline, [][]int{nil, allTiles, nil, allTiles, allTiles}},
		{Memo, [][]int{nil, nil, nil, nil, allTiles}},
	} {
		t.Run(tc.tech.String(), func(t *testing.T) {
			run := func(forget bool) reuseRun {
				sim := newSim(t, tr, tc.tech, 2)
				var r reuseRun
				r.runFrame(sim, 0, forget)
				r.runFrame(sim, 1, forget)
				textures := sim.textures
				sim.textures = sim.textures[:0]
				func() {
					defer func() {
						if recover() == nil {
							t.Fatal("frame 2 did not panic")
						}
					}()
					sim.RunFrame(&tr.Frames[2])
				}()
				sim.textures = textures
				for f := 3; f < len(tr.Frames); f++ {
					r.runFrame(sim, f, forget)
				}
				return r
			}
			got := run(false)
			sameFrames(t, got, run(true))
			wantReusedEach(t, got, tc.want)
		})
	}
}

// A trace shows why a tile has no raster-tile span: every tile either
// renders or is reused, with a tile-reused instant on the stage track.
func TestTileReuseTraced(t *testing.T) {
	tr := halvesTrace(red, red, blue, blue)
	// The tiles rendered and reused over the 4 frames.
	type counts struct{ rendered, reused int }
	forEachReuse(t, map[Technique]counts{
		Baseline: {4 + 2, 4 + 2 + 4},
		Memo:     {4 + 4 + 2 + 2, 2 + 2},
	}, func(t *testing.T, tech Technique, workers int, want counts) {
		cfg := DefaultConfig()
		cfg.Technique = tech
		cfg.TileWorkers = workers
		cfg.Tracer = obs.NewTracer()
		sim, err := New(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := sim.Run()
		rendered, reused := 0, 0
		for _, e := range cfg.Tracer.Events() {
			switch {
			case e.Name == "raster-tile" && e.Ph == "B":
				rendered++
			case e.Name == "tile-reused" && e.Ph == "i":
				reused++
			}
		}
		if rendered != want.rendered || reused != want.reused {
			t.Errorf("%d raster-tile spans and %d tile-reused instants, want %d and %d", rendered, reused, want.rendered, want.reused)
		}
		if uint64(rendered+reused) != res.Total.TilesTotal {
			t.Errorf("%d tiles rendered or reused of %d", rendered+reused, res.Total.TilesTotal)
		}
	})
}
