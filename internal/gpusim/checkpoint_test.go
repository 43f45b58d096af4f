package gpusim

import (
	"reflect"
	"testing"

	"rendelim/internal/api"
	"rendelim/internal/geom"
	"rendelim/internal/shader"
	"rendelim/internal/workload"
)

// checkpointInput is one trace the checkpoint tests run. build returns a
// fresh copy on every call, so a resumed simulator shares nothing with the
// one that took the checkpoint.
type checkpointInput struct {
	prefix string // subtest name prefix; empty for the suite workload
	build  func() *api.Trace
}

// checkpointInputs pairs a suite workload with uploadTrace, the only input
// whose program and texture tables change before the checkpoint, and
// unsetTrace, the only input whose programs read registers an invocation
// never set.
func checkpointInputs(t *testing.T, alias string, params workload.Params) []checkpointInput {
	t.Helper()
	b, err := workload.ByAlias(alias)
	if err != nil {
		t.Fatal(err)
	}
	return []checkpointInput{
		{build: func() *api.Trace { return b.Build(params) }},
		{prefix: "uploads/", build: uploadTrace},
		{prefix: "unset/", build: unsetTrace},
	}
}

// unsetTrace is a six-frame scene whose first draw reads registers no
// invocation of it sets: the draw submits two attributes to a vertex
// shader that also reads v2, and its fragment program writes only o0.xyz
// and alpha-blends, so o0.w is whatever the register holds. A FlatFS draw
// with a translucent tint follows and leaves its own v2 and o0.w behind.
// Shading starts every invocation from zeroed registers, so what the first
// draw renders cannot depend on the invocation before it — which a
// resumed simulator never ran. The first quad stands still, so ground
// truth compares its tiles across frames; the second moves.
func unsetTrace() *api.Trace {
	const W, H, frames = 96, 64, 6
	partialFS := &shader.Program{Name: "partial-fs", Instrs: []shader.Instr{
		{Op: shader.OpTex, Dst: shader.RD(0), Src: [3]shader.Src{shader.V(2)}},
		{Op: shader.OpMul, Dst: shader.OD(0).Masked(shader.MaskX | shader.MaskY | shader.MaskZ), Src: [3]shader.Src{shader.R(0), shader.C(4)}},
	}}
	tr := &api.Trace{
		Name: "unset", Width: W, Height: H,
		ClearColor: geom.V4(0.1, 0.1, 0.1, 1),
		Programs:   []*shader.Program{shader.TransformVS(2), partialFS, shader.FlatFS()},
		Textures: []api.TextureSpec{
			{Kind: api.TexChecker, W: 16, H: 16, Cell: 4, A: geom.V4(0.9, 0.3, 0.1, 1), B: geom.V4(0.1, 0.3, 0.9, 1)},
		},
	}
	corners := [6][2]float32{{0, 0}, {1, 0}, {1, 1}, {0, 0}, {1, 1}, {0, 1}}
	quad := func(x, y, w, h float32, attrs int) []geom.Vec4 {
		var out []geom.Vec4
		for _, c := range corners {
			out = append(out, geom.V4(x+c[0]*w, y+c[1]*h, 0, 1), geom.V4(1, 1, 1, 1))
			if attrs == 3 {
				out = append(out, geom.V4(0.25+c[0]/2, 0.75-c[1]/2, 0, 0))
			}
		}
		return out
	}
	ortho := geom.Ortho(0, W, 0, H, -1, 1)
	for f := 0; f < frames; f++ {
		tr.Frames = append(tr.Frames, api.Frame{Commands: []api.Command{
			api.SetUniforms{First: 0, Values: []geom.Vec4{ortho.Row(0), ortho.Row(1), ortho.Row(2), ortho.Row(3)}},
			api.SetUniforms{First: 4, Values: []geom.Vec4{geom.V4(1, 1, 1, 1)}},
			api.SetPipeline{VS: 0, FS: 1, Tex: [api.MaxTexUnits]api.TextureID{0}, Blend: api.BlendAlpha},
			api.Draw{NumAttrs: 2, Data: quad(8, 8, 56, 44, 2)},
			api.SetUniforms{First: 4, Values: []geom.Vec4{geom.V4(0.2, 0.6, 1, 0.5)}},
			api.SetPipeline{VS: 0, FS: 2},
			api.Draw{NumAttrs: 3, Data: quad(70-float32(5*f), 20, 20, 30, 3)},
		}})
	}
	return tr
}

// uploadTrace is a six-frame scene whose frames 1 and 2 upload a fragment
// program and both textures over the ones the trace registered, texture 0
// twice so the replay must keep upload order; frame 4 uploads the other
// fragment program, which a rewind to frame 3 must undo. Trace validation
// only admits bindings of registered IDs, so uploads replace registered
// entries. The sprites move every frame, so under every technique tiles
// keep rendering with the uploaded programs and textures after a checkpoint
// at frame 3: a Resume that rebuilt the wrong tables renders different
// pixels. No suite workload uploads mid-trace, so this is the only input
// that exercises Resume's replay of the uploads.
func uploadTrace() *api.Trace {
	const W, H, frames = 96, 64, 6
	tr := &api.Trace{
		Name: "uploads", Width: W, Height: H,
		ClearColor: geom.V4(0, 0, 0, 1),
		Programs:   []*shader.Program{shader.TransformVS(2), shader.TexturedFS(), shader.VertexColorFS()},
		Textures: []api.TextureSpec{
			{Kind: api.TexChecker, W: 32, H: 32, Cell: 8, A: geom.V4(0.8, 0.2, 0.2, 1), B: geom.V4(0.2, 0.2, 0.8, 1)},
			{Kind: api.TexGradient, W: 16, H: 16, A: geom.V4(1, 1, 0, 1), B: geom.V4(0, 1, 1, 1)},
		},
	}
	uploads := [frames][]api.Command{
		1: {
			api.UploadProgram{ID: 2, Program: shader.FlatFS()},
			api.UploadTexture{ID: 0, Spec: api.TextureSpec{Kind: api.TexChecker, W: 16, H: 16, Cell: 2,
				A: geom.V4(0.1, 0.9, 0.1, 1), B: geom.V4(0.9, 0.9, 0.1, 1)}},
		},
		2: {
			api.UploadTexture{ID: 1, Spec: api.TextureSpec{Kind: api.TexNoise, W: 16, H: 16, Cell: 4, Seed: 7,
				A: geom.V4(0.5, 0.5, 0.5, 1), Amp: 0.4}},
			api.UploadTexture{ID: 0, Spec: api.TextureSpec{Kind: api.TexDisc, W: 32, H: 32,
				A: geom.V4(1, 0.5, 0, 1), B: geom.V4(0, 0.3, 0.6, 1)}},
		},
		4: {api.UploadProgram{ID: 1, Program: shader.VertexColorFS()}},
	}
	quad := func(x, y, w, h float32, c geom.Vec4) []geom.Vec4 {
		p00, p10 := geom.V4(x, y, 0, 1), geom.V4(x+w, y, 0, 1)
		p01, p11 := geom.V4(x, y+h, 0, 1), geom.V4(x+w, y+h, 0, 1)
		uv0, uv1, uv2, uv3 := geom.V4(0, 0, 0, 0), geom.V4(1, 0, 0, 0), geom.V4(1, 1, 0, 0), geom.V4(0, 1, 0, 0)
		return []geom.Vec4{p00, c, uv0, p10, c, uv1, p11, c, uv2, p00, c, uv0, p11, c, uv2, p01, c, uv3}
	}
	ortho := geom.Ortho(0, W, 0, H, -1, 1)
	for f := 0; f < frames; f++ {
		var sprites []geom.Vec4
		for i := 0; i < 3; i++ {
			sprites = append(sprites, quad(4+float32(i*30+5*f), 8+float32(i*6), 14, 14, geom.V4(0.5, 1, 0.5, 1))...)
		}
		cmds := append([]api.Command(nil), uploads[f]...)
		tr.Frames = append(tr.Frames, api.Frame{Commands: append(cmds,
			api.SetUniforms{First: 0, Values: []geom.Vec4{ortho.Row(0), ortho.Row(1), ortho.Row(2), ortho.Row(3)}},
			api.SetUniforms{First: 4, Values: []geom.Vec4{geom.V4(1, 1, 1, 1)}},
			api.SetPipeline{VS: 0, FS: 1, Tex: [api.MaxTexUnits]api.TextureID{0}},
			api.Draw{NumAttrs: 3, Data: quad(0, 0, W, H, geom.V4(1, 1, 1, 1))},
			api.SetPipeline{VS: 0, FS: 2},
			api.Draw{NumAttrs: 3, Data: sprites},
			api.SetPipeline{VS: 0, FS: 1, Tex: [api.MaxTexUnits]api.TextureID{1}},
			api.Draw{NumAttrs: 3, Data: quad(60-float32(6*f), 36, 20, 20, geom.V4(1, 1, 1, 1))},
		)})
	}
	return tr
}

// runToCheckpoint runs tr straight through, checkpointing at the boundary
// before frame k, and returns the simulator, the checkpoint and every
// frame's stats.
func runToCheckpoint(t *testing.T, tr *api.Trace, cfg Config, k int) (*Simulator, []byte, []Stats) {
	t.Helper()
	sim, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var cp []byte
	var stats []Stats
	for i := range tr.Frames {
		if i == k {
			cp = sim.Checkpoint()
		}
		stats = append(stats, sim.RunFrame(&tr.Frames[i]))
	}
	return sim, cp, stats
}

// checkTail runs frames k.. of tr on sim, which was resumed at frame k, and
// requires every frame's stats and the final pixels to match the straight
// run's.
func checkTail(t *testing.T, sim *Simulator, tr *api.Trace, k int, refStats []Stats, refFB []uint32) {
	t.Helper()
	for i := k; i < len(tr.Frames); i++ {
		got := sim.RunFrame(&tr.Frames[i])
		if !reflect.DeepEqual(got, refStats[i]) {
			t.Fatalf("frame %d stats diverge after resume:\n got %+v\nwant %+v", i, got, refStats[i])
		}
	}
	if !reflect.DeepEqual(sim.FrameBufferSnapshot(), refFB) {
		t.Fatal("framebuffer diverges after resume")
	}
}

// For every technique, a run that checkpoints at frame k, finishes, and is
// then replayed by a fresh simulator resuming from that checkpoint must
// produce byte-identical per-frame stats and pixels for the remaining
// frames — checkpoint/resume is exact, not approximate.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	const k = 3
	for _, in := range checkpointInputs(t, "ccs", workload.Params{Width: 96, Height: 64, Frames: 8, Seed: 1}) {
		for _, tech := range []Technique{Baseline, RE, TE, Memo} {
			t.Run(in.prefix+tech.String(), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Technique = tech
				tr := in.build()
				ref, cp, refStats := runToCheckpoint(t, tr, cfg, k)

				// Fresh simulator, resumed from the checkpoint.
				res, err := New(in.build(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := res.Resume(cp); err != nil {
					t.Fatal(err)
				}
				if res.Frame() != k {
					t.Fatalf("checkpoint frame = %d, want %d", res.Frame(), k)
				}
				checkTail(t, res, tr, k, refStats, ref.FrameBufferSnapshot())
				if res.FrameBufferCRC() != ref.FrameBufferCRC() {
					t.Fatal("framebuffer CRC diverges after resume")
				}
			})
		}
	}
}

// Rewinding the same simulator (restore in place, not onto a fresh one)
// must work too: run to the end, resume back to frame k, re-run the tail.
// On the upload trace the rewind keeps the uploads before k and undoes the
// one after it.
func TestCheckpointRewindInPlace(t *testing.T) {
	rewind := func(t *testing.T, tr *api.Trace, cfg Config, k int) {
		t.Helper()
		sim, cp, refStats := runToCheckpoint(t, tr, cfg, k)
		refFB := sim.FrameBufferSnapshot()
		if err := sim.Resume(cp); err != nil {
			t.Fatal(err)
		}
		checkTail(t, sim, tr, k, refStats, refFB)
	}

	b, err := workload.ByAlias("hop")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Technique = RE
	rewind(t, b.Build(workload.Params{Width: 96, Height: 64, Frames: 6, Seed: 1}), cfg, 2)

	for _, tech := range []Technique{Baseline, RE, TE, Memo} {
		t.Run("uploads/"+tech.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Technique = tech
			rewind(t, uploadTrace(), cfg, 3)
		})
	}
}

// A checkpoint from a different trace or technique must be rejected.
func TestResumeRejectsMismatch(t *testing.T) {
	params := workload.Params{Width: 96, Height: 64, Frames: 4, Seed: 1}
	b, err := workload.ByAlias("ccs")
	if err != nil {
		t.Fatal(err)
	}
	tr := b.Build(params)
	cfg := DefaultConfig()
	cfg.Technique = RE
	simA, err := New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp := simA.Checkpoint()

	cfgB := cfg
	cfgB.Technique = TE
	simB, err := New(tr, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	if err := simB.Resume(cp); err == nil {
		t.Fatal("Resume accepted a checkpoint from a different technique")
	}
	if err := simB.Resume(nil); err == nil {
		t.Fatal("Resume accepted a nil checkpoint")
	}
}
