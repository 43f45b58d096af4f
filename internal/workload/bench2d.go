package workload

import (
	"math"

	"rendelim/internal/api"
	"rendelim/internal/geom"
	"rendelim/internal/texture"
)

// newTrace assembles the common trace skeleton.
func newTrace(name string, p Params, clear geom.Vec4, tex []api.TextureSpec) *api.Trace {
	return &api.Trace{
		Name:       name,
		Width:      p.Width,
		Height:     p.Height,
		ClearColor: clear,
		Programs:   StandardPrograms(),
		Textures:   tex,
		Frames:     make([]api.Frame, 0, p.Frames),
	}
}

// candy colors for sprite tints.
var candyColors = []geom.Vec4{
	{X: 1, Y: 0.3, Z: 0.3, W: 1}, {X: 0.3, Y: 1, Z: 0.4, W: 1},
	{X: 0.4, Y: 0.5, Z: 1, W: 1}, {X: 1, Y: 0.9, Z: 0.3, W: 1},
	{X: 1, Y: 0.5, Z: 1, W: 1}, {X: 0.4, Y: 1, Z: 1, W: 1},
}

// buildCCS: Candy Crush Saga — a static puzzle board where one candy pair
// animates at a time. Static camera, tiny moving region: the >90% equal
// tiles class of Figure 2.
func buildCCS(p Params) *api.Trace {
	tr := newTrace("ccs", p, geom.V4(0.1, 0.05, 0.2, 1), []api.TextureSpec{
		{Kind: api.TexNoise, W: 512, H: 512, Cell: 8, Seed: uint64(p.Seed), A: geom.V4(0.3, 0.2, 0.5, 1), Amp: 0.15, Filter: texture.Nearest},
		{Kind: api.TexDisc, W: 32, H: 32, A: geom.V4(1, 1, 1, 1), B: geom.V4(0, 0, 0, 0), Filter: texture.Nearest},
	})
	W, H := float32(p.Width), float32(p.Height)
	const cols, rows = 8, 6
	cellW := W / (cols + 2)
	cellH := H / (rows + 2)
	candy := cellW * 0.8
	const swapPeriod = 16

	for f := 0; f < p.Frames; f++ {
		b := newFrame()
		b.setMVP(ortho2D(p.Width, p.Height))
		b.setUniforms(4, geom.V4(1, 1, 1, 1))

		b.setPipeline(pipe2D(ProgTexFS, 0, api.BlendNone))
		b.quad2D(0, 0, W, H, 0, geom.V4(1, 1, 1, 1))

		b.setPipeline(pipe2D(ProgTexFS, 1, api.BlendAlpha))
		pair := f / swapPeriod
		ai := pair % (cols*rows - 1)
		bi := ai + 1
		t := float64(f%swapPeriod) / swapPeriod
		lift := float32(math.Round(12 * math.Sin(math.Pi*t)))
		for j := 0; j < rows; j++ {
			for i := 0; i < cols; i++ {
				idx := j*cols + i
				x := cellW * (1 + float32(i))
				y := cellH * (1 + float32(j))
				if idx == ai {
					y += lift
				} else if idx == bi {
					y -= lift
				}
				b.quad2D(x, y, candy, candy, 0, candyColors[(i+j)%len(candyColors)])
			}
		}
		tr.Frames = append(tr.Frames, b.done())
	}
	return tr
}

// buildCDE: Castle Defense — the most static benchmark: fixed map and
// towers, one small projectile and one walking enemy. Highest RE benefit
// (Figure 14a: up to 86% cycle reduction).
func buildCDE(p Params) *api.Trace {
	tr := newTrace("cde", p, geom.V4(0.1, 0.15, 0.1, 1), []api.TextureSpec{
		{Kind: api.TexChecker, W: 512, H: 512, Cell: 16, A: geom.V4(0.25, 0.4, 0.2, 1), B: geom.V4(0.2, 0.33, 0.16, 1), Filter: texture.Nearest},
		{Kind: api.TexDisc, W: 16, H: 16, A: geom.V4(0.9, 0.2, 0.2, 1), B: geom.V4(0, 0, 0, 0), Filter: texture.Nearest},
		{Kind: api.TexGradient, W: 32, H: 64, A: geom.V4(0.6, 0.6, 0.65, 1), B: geom.V4(0.3, 0.3, 0.35, 1), Filter: texture.Nearest},
	})
	W, H := float32(p.Width), float32(p.Height)

	for f := 0; f < p.Frames; f++ {
		b := newFrame()
		b.setMVP(ortho2D(p.Width, p.Height))
		b.setUniforms(4, geom.V4(1, 1, 1, 1))

		b.setPipeline(pipe2D(ProgTexFS, 0, api.BlendNone))
		b.quad2D(0, 0, W, H, 0, geom.V4(1, 1, 1, 1))

		// Static towers.
		b.setPipeline(pipe2D(ProgTexFS, 2, api.BlendNone))
		for i := 0; i < 6; i++ {
			x := W * (0.12 + 0.14*float32(i))
			b.quad2D(x, H*0.55, W*0.05, H*0.2, 0, geom.V4(1, 1, 1, 1))
		}

		// One projectile and one enemy.
		b.setPipeline(pipe2D(ProgTexFS, 1, api.BlendAlpha))
		px, py := stepPath(f, 25, W*0.2, H*0.6, W*0.7, H*0.3)
		b.quad2D(px, py, 10, 10, 0, geom.V4(1, 1, 0.4, 1))
		ex, _ := stepPath(f, 60, W*0.05, H*0.25, W*0.9, H*0.25)
		b.quad2D(ex, H*0.25, 18, 18, 0, geom.V4(1, 1, 1, 1))

		tr.Frames = append(tr.Frames, b.done())
	}
	return tr
}

// buildCTR: Cut the Rope — static background with a swinging rope+candy.
func buildCTR(p Params) *api.Trace {
	tr := newTrace("ctr", p, geom.V4(0.15, 0.1, 0.08, 1), []api.TextureSpec{
		{Kind: api.TexNoise, W: 512, H: 512, Cell: 16, Seed: uint64(p.Seed) + 7, A: geom.V4(0.5, 0.35, 0.25, 1), Amp: 0.1, Filter: texture.Nearest},
		{Kind: api.TexDisc, W: 32, H: 32, A: geom.V4(0.9, 0.7, 0.3, 1), B: geom.V4(0, 0, 0, 0), Filter: texture.Nearest},
	})
	W, H := float32(p.Width), float32(p.Height)
	pivotX, pivotY := W*0.5, H*0.9
	ropeLen := H * 0.35
	const segs = 8

	for f := 0; f < p.Frames; f++ {
		b := newFrame()
		b.setMVP(ortho2D(p.Width, p.Height))
		b.setUniforms(4, geom.V4(1, 1, 1, 1))

		b.setPipeline(pipe2D(ProgTexFS, 0, api.BlendNone))
		b.quad2D(0, 0, W, H, 0, geom.V4(1, 1, 1, 1))

		// Swinging rope segments + candy at the end.
		ang := 0.6 * math.Sin(2*math.Pi*float64(f)/40)
		b.setPipeline(pipe2D(ProgVColorFS, 0, api.BlendNone))
		for sTmp := 1; sTmp <= segs; sTmp++ {
			r := ropeLen * float32(sTmp) / segs
			x := pivotX + r*sinf(ang)
			y := pivotY - r*cosf(ang)
			x = float32(math.Round(float64(x)))
			y = float32(math.Round(float64(y)))
			b.quad2D(x-2, y-2, 5, 5, 0, geom.V4(0.8, 0.75, 0.6, 1))
		}
		b.setPipeline(pipe2D(ProgTexFS, 1, api.BlendAlpha))
		cx := pivotX + ropeLen*sinf(ang)
		cy := pivotY - ropeLen*cosf(ang)
		b.quad2D(float32(math.Round(float64(cx)))-12, float32(math.Round(float64(cy)))-12, 24, 24, 0, geom.V4(1, 1, 1, 1))

		tr.Frames = append(tr.Frames, b.done())
	}
	return tr
}

// buildHOP: Hopeless — a survival-horror scene that is mostly black. A
// flicker overlay updates an *unused* uniform every frame, so roughly a
// third of the screen has different inputs but identical (black) colors —
// RE false negatives — while the flat-shaded darkness consists of a handful
// of repeated fragment inputs, which is exactly why Fragment Memoization
// beats RE on this benchmark (Figure 16) despite >90% color equality.
func buildHOP(p Params) *api.Trace {
	tr := newTrace("hop", p, geom.V4(0, 0, 0, 1), []api.TextureSpec{
		{Kind: api.TexDisc, W: 64, H: 64, A: geom.V4(0.9, 0.8, 0.5, 0.6), B: geom.V4(0, 0, 0, 0), Filter: texture.Nearest},
	})
	W, H := float32(p.Width), float32(p.Height)
	dark := geom.V4(0.02, 0.02, 0.03, 1)

	for f := 0; f < p.Frames; f++ {
		b := newFrame()
		b.setMVP(ortho2D(p.Width, p.Height))

		// Static darkness base.
		b.setUniforms(4, dark)
		b.setPipeline(pipe2D(ProgFlatFS, 0, api.BlendNone))
		b.quad2D(0, 0, W, H, 0, geom.V4(1, 1, 1, 1))

		// Flicker overlay: c6 (read by no shader) changes every frame, so
		// the covered tiles' inputs differ while their color stays black.
		b.setUniforms(4, dark)
		b.setUniforms(6, geom.V4(float32(f), float32(f)*0.13, 0, 0))
		b.setPipeline(pipe2D(ProgFlatFS, 0, api.BlendNone))
		b.quad2D(W*0.12, H*0.12, W*0.72, H*0.72, 0, geom.V4(1, 1, 1, 1))

		// The survivor and a small swaying lantern glow.
		b.setUniforms(4, geom.V4(1, 1, 1, 1))
		b.setUniforms(6, geom.V4(0, 0, 0, 0))
		cx, cy := stepPath(f, 80, W*0.3, H*0.3, W*0.6, H*0.35)
		b.setPipeline(pipe2D(ProgVColorFS, 0, api.BlendNone))
		b.quad2D(cx, cy, 14, 22, 0, geom.V4(0.35, 0.3, 0.28, 1))
		b.setPipeline(pipe2D(ProgTexFS, 0, api.BlendAlpha))
		b.quad2D(cx-24, cy-18, 60, 60, 0, geom.V4(1, 1, 1, 1))

		tr.Frames = append(tr.Frames, b.done())
	}
	return tr
}

// buildABI: Angry Birds — phase-mixed: 12 static aiming frames alternate
// with 8 camera-panning frames; the sky's flat color keeps many panned
// tiles color-equal while their inputs change.
func buildABI(p Params) *api.Trace {
	tr := newTrace("abi", p, geom.V4(0.45, 0.7, 0.95, 1), []api.TextureSpec{
		// Flat sky color: panning does not change sampled colors.
		{Kind: api.TexChecker, W: 8, H: 8, Cell: 8, A: geom.V4(0.45, 0.7, 0.95, 1), B: geom.V4(0.45, 0.7, 0.95, 1), Filter: texture.Nearest},
		{Kind: api.TexNoise, W: 512, H: 256, Cell: 8, Seed: uint64(p.Seed) + 3, A: geom.V4(0.3, 0.6, 0.25, 1), Amp: 0.2, Filter: texture.Nearest},
		{Kind: api.TexDisc, W: 32, H: 32, A: geom.V4(0.85, 0.2, 0.2, 1), B: geom.V4(0, 0, 0, 0), Filter: texture.Nearest},
	})
	W, H := float32(p.Width), float32(p.Height)
	const period = 20
	const staticFrames = 6

	for f := 0; f < p.Frames; f++ {
		phase := f % period
		panning := phase >= staticFrames
		var scroll float32
		if panning {
			scroll = float32(math.Round(float64(W) * 0.04 * float64(phase-staticFrames+1)))
		}

		b := newFrame()
		b.setMVP(ortho2D(p.Width, p.Height))
		b.setUniforms(4, geom.V4(1, 1, 1, 1))

		// Sky (upper 55%): flat color. It parallax-scrolls during pans, so
		// its inputs change while its sampled colors stay identical — the
		// "equal colors, different inputs" class that favors TE over RE on
		// this benchmark (Section V-A).
		b.setPipeline(pipe2D(ProgTexFS, 0, api.BlendNone))
		b.quad2D(-scroll*0.25-W*0.5, H*0.45, W*2, H*0.55, 0, geom.V4(1, 1, 1, 1))
		// Ground strip scrolls during pans (two copies for wraparound).
		b.setPipeline(pipe2D(ProgTexFS, 1, api.BlendNone))
		gx := -scroll
		b.quad2D(gx, 0, W, H*0.45, 0, geom.V4(1, 1, 1, 1))
		b.quad2D(gx+W, 0, W, H*0.45, 0, geom.V4(1, 1, 1, 1))

		// Slingshot structure (static) and the bird (flies while panning).
		b.setPipeline(pipe2D(ProgVColorFS, 0, api.BlendNone))
		b.quad2D(W*0.15-scroll*0.5, H*0.45, 8, H*0.12, 0, geom.V4(0.4, 0.25, 0.15, 1))
		b.setPipeline(pipe2D(ProgTexFS, 2, api.BlendAlpha))
		if panning {
			t := float64(phase-staticFrames) / float64(period-staticFrames)
			bx := float32(math.Round(float64(W) * (0.2 + 0.6*t)))
			by := float32(math.Round(float64(H) * (0.5 + 0.35*t*(1-t)*4*0.5)))
			b.quad2D(bx, by, 20, 20, 0, geom.V4(1, 1, 1, 1))
		} else {
			b.quad2D(W*0.16, H*0.5, 20, 20, 0, geom.V4(1, 1, 1, 1))
		}

		tr.Frames = append(tr.Frames, b.done())
	}
	return tr
}
