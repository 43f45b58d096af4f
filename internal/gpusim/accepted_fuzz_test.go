package gpusim

import (
	"bytes"
	"testing"

	"rendelim/internal/api"
	"rendelim/internal/geom"
	"rendelim/internal/shader"
	"rendelim/internal/trace"
	"rendelim/internal/workload"
)

// drawBeforeBindTrace registers two programs and no texture, and its one
// frame draws a full-screen quad before any SetPipeline, under the
// reset-time binding: texture 0 on every unit. trace.Decode must reject it.
func drawBeforeBindTrace() *api.Trace {
	quad := []geom.Vec4{
		geom.V4(-1, -1, 0, 1), {}, {}, geom.V4(1, -1, 0, 1), {}, {}, geom.V4(1, 1, 0, 1), {}, {},
		geom.V4(-1, -1, 0, 1), {}, {}, geom.V4(1, 1, 0, 1), {}, {}, geom.V4(-1, 1, 0, 1), {}, {},
	}
	return &api.Trace{
		Name: "repro", Width: 32, Height: 32,
		Programs: []*shader.Program{shader.TransformVS(2), shader.FlatFS()},
		Frames: []api.Frame{{Commands: []api.Command{
			api.SetUniforms{First: 0, Values: []geom.Vec4{geom.V4(1, 0, 0, 0), geom.V4(0, 1, 0, 0), geom.V4(0, 0, 1, 0), geom.V4(0, 0, 0, 1)}},
			api.SetUniforms{First: 4, Values: []geom.Vec4{geom.V4(1, 0.5, 0, 1)}},
			api.Draw{NumAttrs: 3, Data: quad},
		}}},
	}
}

// Bounds on the traces FuzzAcceptedTraceRuns simulates, so that one input
// costs milliseconds: the framebuffer, the frame count, the texels that the
// registry and the uploads build, and the fragments that the draws could
// cover (triangles × framebuffer pixels). Six frames give Memo, which
// reuses renders two frames back, two PFR pairs to reuse in.
const (
	fuzzMaxSide      = 64
	fuzzMaxFrames    = 6
	fuzzMaxTexels    = 1 << 14
	fuzzMaxFragments = 1 << 21
)

// fuzzSmall reports whether tr is within the bounds above.
func fuzzSmall(tr *api.Trace) bool {
	if tr.Width > fuzzMaxSide || tr.Height > fuzzMaxSide || len(tr.Frames) > fuzzMaxFrames {
		return false
	}
	texels, tris := 0, 0
	addTex := func(s api.TextureSpec) {
		texels += min(s.W, fuzzMaxTexels+1) * min(s.H, fuzzMaxTexels+1)
	}
	for _, s := range tr.Textures {
		addTex(s)
	}
	for _, f := range tr.Frames {
		for _, cmd := range f.Commands {
			switch c := cmd.(type) {
			case api.UploadTexture:
				addTex(c.Spec)
			case api.Draw:
				tris += c.TriangleCount()
			}
		}
	}
	return texels <= fuzzMaxTexels && tris*tr.Width*tr.Height <= fuzzMaxFragments
}

// fuzzSeed is b's trace at fuzz scale: 32×32, fuzzMaxFrames frames, so
// that RE and tile reuse have earlier frames to compare against, and every
// texture at most 32×32 texels.
func fuzzSeed(b workload.Benchmark) *api.Trace {
	tr := b.Build(workload.Params{Width: 32, Height: 32, Frames: fuzzMaxFrames, Seed: 1})
	shrink := func(s *api.TextureSpec) {
		s.W, s.H = min(s.W, 32), min(s.H, 32)
	}
	for i := range tr.Textures {
		shrink(&tr.Textures[i])
	}
	for _, f := range tr.Frames {
		for i, cmd := range f.Commands {
			if up, ok := cmd.(api.UploadTexture); ok {
				shrink(&up.Spec)
				f.Commands[i] = up
			}
		}
	}
	return tr
}

// FuzzAcceptedTraceRuns: every trace that trace.Decode accepts runs, and
// runs right. A small accepted trace runs every frame under all four
// techniques: serially, on two tile workers, and serially with its kept
// tiles forgotten before every frame. Any panic fails, and so does any
// frame where
//   - two tile workers or forgotten tiles change the Stats or the displayed
//     pixels of the serial run: forgetting makes Baseline and TE render
//     what they reuse from the previous frame, and Memo what it reuses
//     from two frames back;
//   - TE's or Memo's pixels differ from Baseline's;
//   - Baseline classifies a tile as equal inputs, different colours.
//
// RE's pixels are not compared: RE signs only each constants block's
// delta, so it can skip a tile whose draws read a register that an earlier
// block set to another value (ROADMAP item 1). Seeds are the suite at small
// scale, a trace that draws before it binds a texture it never defines,
// which Decode rejects, and a trace whose right half alternates tints so
// that Memo's second frame of a pair must render tiles that the pair's
// first frame rendered (TestTileReuseMemoPairs).
func FuzzAcceptedTraceRuns(f *testing.F) {
	encode := func(tr *api.Trace) []byte {
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, b := range workload.Suite() {
		tr := fuzzSeed(b)
		if !fuzzSmall(tr) {
			f.Fatalf("seed %s is outside the fuzz bounds", b.Alias)
		}
		f.Add(encode(tr))
	}
	f.Add(encode(drawBeforeBindTrace()))
	f.Add(encode(halvesTrace(red, red, blue, red, blue, red)))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil || !fuzzSmall(tr) {
			return
		}
		runs := map[Technique]reuseRun{}
		for _, tech := range []Technique{Baseline, RE, TE, Memo} {
			serial := runReuse(t, tr, tech, 1, false)
			for _, v := range []struct {
				name string
				run  reuseRun
			}{
				{"2 tile workers", runReuse(t, tr, tech, 2, false)},
				{"tiles forgotten", runReuse(t, tr, tech, 1, true)},
			} {
				for f := range tr.Frames {
					if v.run.stats[f] != serial.stats[f] || v.run.crcs[f] != serial.crcs[f] {
						t.Fatalf("%s, %s, frame %d: Stats or pixels differ from the serial run's:\n got %+v, CRC %08x\nwant %+v, CRC %08x",
							tech, v.name, f, v.run.stats[f], v.run.crcs[f], serial.stats[f], serial.crcs[f])
					}
				}
			}
			runs[tech] = serial
		}
		base := runs[Baseline]
		for f := range tr.Frames {
			if n := base.stats[f].TileClasses[TileEqInputDiffColor]; n != 0 {
				t.Fatalf("frame %d: Baseline has %d tiles of equal inputs and different colours", f, n)
			}
			for _, tech := range []Technique{TE, Memo} {
				if got := runs[tech].crcs[f]; got != base.crcs[f] {
					t.Fatalf("frame %d: %s's framebuffer CRC %08x, Baseline's %08x", f, tech, got, base.crcs[f])
				}
			}
		}
	})
}
