package workload

import (
	"math"

	"rendelim/internal/api"
	"rendelim/internal/geom"
	"rendelim/internal/texture"
)

// buildDesktop: the Android desktop without animations (Figure 1's
// near-idle reference): a static wallpaper and icon grid, identical every
// frame, so the GPU does minimal work and static power dominates.
func buildDesktop(p Params) *api.Trace {
	tr := newTrace("desktop", p, geom.V4(0.1, 0.12, 0.2, 1), []api.TextureSpec{
		{Kind: api.TexGradient, W: 64, H: 64, A: geom.V4(0.15, 0.2, 0.35, 1), B: geom.V4(0.05, 0.08, 0.15, 1), Filter: texture.Nearest},
		{Kind: api.TexDisc, W: 32, H: 32, A: geom.V4(0.9, 0.9, 0.9, 1), B: geom.V4(0, 0, 0, 0), Filter: texture.Nearest},
	})
	W, H := float32(p.Width), float32(p.Height)
	for f := 0; f < p.Frames; f++ {
		b := newFrame()
		// Without animations the compositor only redraws when something
		// changes: the wallpaper and icons are submitted on the first two
		// frames (filling both swap-chain buffers) and every later frame
		// is empty, leaving the GPU essentially idle.
		if f < 2 {
			b.setMVP(ortho2D(p.Width, p.Height))
			b.setUniforms(4, geom.V4(1, 1, 1, 1))
			b.setPipeline(pipe2D(ProgTexFS, 0, api.BlendNone))
			b.quad2D(0, 0, W, H, 0, geom.V4(1, 1, 1, 1))
			b.setPipeline(pipe2D(ProgTexFS, 1, api.BlendAlpha))
			for j := 0; j < 4; j++ {
				for i := 0; i < 5; i++ {
					b.quad2D(W*(0.1+0.18*float32(i)), H*(0.15+0.2*float32(j)), 24, 24, 0, candyColors[(i+j)%len(candyColors)])
				}
			}
		}
		tr.Frames = append(tr.Frames, b.done())
	}
	return tr
}

// buildAntutu: a GPU stress test in the spirit of Antutu3D: a rotating
// camera over many lit, textured objects with heavy overdraw — maximum
// sustained load, no frame-to-frame redundancy.
func buildAntutu(p Params) *api.Trace {
	tr := newTrace("antutu", p, geom.V4(0.05, 0.05, 0.08, 1), []api.TextureSpec{
		{Kind: api.TexNoise, W: 128, H: 128, Cell: 4, Seed: uint64(p.Seed) + 97, A: geom.V4(0.5, 0.5, 0.55, 1), Amp: 0.25, Filter: texture.Bilinear},
		{Kind: api.TexChecker, W: 128, H: 128, Cell: 8, A: geom.V4(0.7, 0.3, 0.2, 1), B: geom.V4(0.2, 0.3, 0.7, 1), Filter: texture.Bilinear},
	})
	light := geom.V4(0.3, 0.8, 0.5, 0.25)
	for f := 0; f < p.Frames; f++ {
		t := float64(f)
		eye := geom.V3(9*cosf(t/20), 4+1.5*sinf(t/11), 9*sinf(t/20))
		cam := perspCam(p.Width, p.Height, eye, geom.V3(0, 1, 0))
		b := newFrame()
		b.setPipeline(pipe3D(ProgLambertFS, 0))
		object(b, cam, geom.V4(1, 1, 1, 1), light, func(b *frameBuilder) {
			b.groundPlane(0, 18, 10)
		})
		// Stacked translucent layers and dense object rings give the
		// sustained whole-screen overdraw a GPU stress test is built for.
		for layer := 0; layer < 3; layer++ {
			y := 4.5 + 0.8*float32(layer)
			object(b, cam, geom.V4(0.9, 0.9, 1, 1), light, func(b *frameBuilder) {
				b.box3D(geom.V3(0, y, 0), geom.V3(14, 0.2, 14))
			})
		}
		b.setPipeline(pipe3D(ProgLambertFS, 1))
		for i := 0; i < 56; i++ {
			ang := float64(i)/56*2*math.Pi + t/9
			r := 2.5 + float32(i%6)
			pos := geom.V3(r*cosf(ang), 0.6+float32(i%3)*1.1, r*sinf(ang))
			object(b, cam, candyColors[i%len(candyColors)], light, func(b *frameBuilder) {
				b.box3D(pos, geom.V3(0.8, 0.8, 0.8))
			})
		}
		tr.Frames = append(tr.Frames, b.done())
	}
	return tr
}
