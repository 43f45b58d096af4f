package workload

import (
	"math"

	"rendelim/internal/api"
	"rendelim/internal/geom"
	"rendelim/internal/texture"
)

// perspCam returns the projection*view matrix for a standard perspective
// camera.
func perspCam(w, h int, eye, center geom.Vec3) geom.Mat4 {
	aspect := float32(w) / float32(h)
	return geom.Perspective(1.1, aspect, 0.5, 200).Mul(geom.LookAt(eye, center, geom.V3(0, 1, 0)))
}

// object emits one 3D object drawcall: its own constants epoch (combined
// MVP + material) followed by its mesh.
func object(b *frameBuilder, mvp geom.Mat4, tint geom.Vec4, light geom.Vec4, emit func(*frameBuilder)) {
	b.setMVP(mvp)
	b.setUniforms(4, tint)
	b.setUniforms(5, light)
	emit(b)
	b.flush()
}

// buildCOC: Clash of Clans — isometric village with a static camera,
// static buildings, a few walking units, one unit walking behind a large
// wall (occluded mover: equal colors, different inputs), and a short camera
// pan every 30 frames.
func buildCOC(p Params) *api.Trace {
	tr := newTrace("coc", p, geom.V4(0.2, 0.3, 0.15, 1), []api.TextureSpec{
		{Kind: api.TexChecker, W: 256, H: 256, Cell: 16, A: geom.V4(0.35, 0.5, 0.25, 1), B: geom.V4(0.3, 0.45, 0.22, 1), Filter: texture.Nearest},
		{Kind: api.TexNoise, W: 256, H: 256, Cell: 8, Seed: uint64(p.Seed) + 11, A: geom.V4(0.6, 0.5, 0.4, 1), Amp: 0.15, Filter: texture.Nearest},
	})
	light := geom.V4(0.4, 0.8, 0.45, 0.35)
	const panStart, panLen, panPeriod = 36, 3, 40

	for f := 0; f < p.Frames; f++ {
		eye := geom.V3(10, 9, 12)
		if ph := f % panPeriod; ph >= panStart%panPeriod && ph < panStart%panPeriod+panLen {
			d := float32(ph - panStart%panPeriod + 1)
			eye = eye.Add(geom.V3(0.4*d, 0, -0.3*d))
		}
		cam := perspCam(p.Width, p.Height, eye, geom.V3(0, 0, 0))

		b := newFrame()
		pipeG := pipe3D(ProgLambertFS, 0)
		b.setPipeline(pipeG)
		object(b, cam, geom.V4(1, 1, 1, 1), light, func(b *frameBuilder) {
			b.groundPlane(0, 14, 6)
		})

		b.setPipeline(pipe3D(ProgLambertFS, 1))
		// Static buildings ring.
		for i := 0; i < 8; i++ {
			ang := float64(i) / 8 * 2 * math.Pi
			pos := geom.V3(6*cosf(ang), 0.9, 6*sinf(ang))
			object(b, cam, geom.V4(0.9, 0.85, 0.8, 1), light, func(b *frameBuilder) {
				b.box3D(pos, geom.V3(0.8, 0.9, 0.8))
			})
		}
		// Large wall that will occlude a mover.
		object(b, cam, geom.V4(0.8, 0.8, 0.85, 1), light, func(b *frameBuilder) {
			b.box3D(geom.V3(0, 1.2, 2.5), geom.V3(4, 1.2, 0.3))
		})
		// Walking units (visible movers).
		for u := 0; u < 2; u++ {
			t := float64(f)/40 + float64(u)*2
			pos := geom.V3(3.5*cosf(t), 0.3, 3.5*sinf(t))
			object(b, cam, candyColors[u], light, func(b *frameBuilder) {
				b.box3D(pos, geom.V3(0.25, 0.3, 0.25))
			})
		}
		// Occluded mover: walks behind the wall (drawn after it, so early-Z
		// culls every fragment; its tiles keep their colors while their
		// inputs change every frame).
		ox := 2.5 * sinf(float64(f)/7)
		object(b, cam, geom.V4(1, 0.4, 0.2, 1), light, func(b *frameBuilder) {
			b.box3D(geom.V3(ox, 0.8, 3.4), geom.V3(0.3, 0.4, 0.3))
		})

		tr.Frames = append(tr.Frames, b.done())
	}
	return tr
}

// buildMST: Modern Strike — an enclosed FPS arena with the camera moving
// and turning every frame: effectively zero redundant tiles (the paper's
// second category).
func buildMST(p Params) *api.Trace {
	tr := newTrace("mst", p, geom.V4(0.1, 0.1, 0.12, 1), []api.TextureSpec{
		{Kind: api.TexNoise, W: 512, H: 512, Cell: 8, Seed: uint64(p.Seed) + 23, A: geom.V4(0.45, 0.42, 0.4, 1), Amp: 0.2, Filter: texture.Nearest},
		{Kind: api.TexChecker, W: 256, H: 256, Cell: 16, A: geom.V4(0.5, 0.48, 0.45, 1), B: geom.V4(0.4, 0.38, 0.36, 1), Filter: texture.Nearest},
	})
	light := geom.V4(0.3, 0.9, 0.3, 0.3)

	for f := 0; f < p.Frames; f++ {
		t := float64(f)
		eye := geom.V3(6*cosf(t/30), 2.2+0.15*sinf(t/3), 6*sinf(t/30))
		look := geom.V3(2*cosf(t/15), 1.8, 2*sinf(t/15))
		cam := perspCam(p.Width, p.Height, eye, look)

		b := newFrame()
		b.setPipeline(pipe3D(ProgLambertFS, 0))
		// Floor and ceiling.
		object(b, cam, geom.V4(1, 1, 1, 1), light, func(b *frameBuilder) {
			b.groundPlane(0, 16, 8)
		})
		object(b, cam, geom.V4(0.6, 0.6, 0.65, 1), light, func(b *frameBuilder) {
			b.box3D(geom.V3(0, 7, 0), geom.V3(16, 0.2, 16))
		})
		// Arena walls.
		b.setPipeline(pipe3D(ProgLambertFS, 1))
		walls := [4]geom.Vec3{{X: 0, Y: 3.5, Z: -12}, {X: 0, Y: 3.5, Z: 12}, {X: -12, Y: 3.5, Z: 0}, {X: 12, Y: 3.5, Z: 0}}
		for i, w := range walls {
			e := geom.V3(12, 3.5, 0.3)
			if i >= 2 {
				e = geom.V3(0.3, 3.5, 12)
			}
			object(b, cam, geom.V4(0.85, 0.85, 0.9, 1), light, func(b *frameBuilder) {
				b.box3D(w, e)
			})
		}
		// Cover crates.
		for i := 0; i < 10; i++ {
			ang := float64(i)/10*2*math.Pi + 0.4
			pos := geom.V3(7*cosf(ang), 0.7, 7*sinf(ang))
			object(b, cam, geom.V4(0.7, 0.6, 0.45, 1), light, func(b *frameBuilder) {
				b.box3D(pos, geom.V3(0.7, 0.7, 0.7))
			})
		}
		tr.Frames = append(tr.Frames, b.done())
	}
	return tr
}

// buildCSN: Crazy Snowboard — continuous downhill motion with a static
// screen-space sky band (~40% of tiles stay identical).
func buildCSN(p Params) *api.Trace {
	tr := newTrace("csn", p, geom.V4(0.55, 0.7, 0.9, 1), []api.TextureSpec{
		{Kind: api.TexGradient, W: 32, H: 64, A: geom.V4(0.5, 0.65, 0.9, 1), B: geom.V4(0.75, 0.85, 1, 1), Filter: texture.Nearest},
		{Kind: api.TexNoise, W: 512, H: 512, Cell: 16, Seed: uint64(p.Seed) + 31, A: geom.V4(0.92, 0.94, 1, 1), Amp: 0.05, Filter: texture.Nearest},
		{Kind: api.TexChecker, W: 32, H: 32, Cell: 4, A: geom.V4(0.3, 0.5, 0.3, 1), B: geom.V4(0.25, 0.4, 0.25, 1), Filter: texture.Nearest},
	})
	W, H := float32(p.Width), float32(p.Height)
	light := geom.V4(0.3, 0.9, 0.3, 0.45)

	for f := 0; f < p.Frames; f++ {
		b := newFrame()
		// Screen-space sky: identical commands every frame.
		b.setMVP(ortho2D(p.Width, p.Height))
		b.setUniforms(4, geom.V4(1, 1, 1, 1))
		b.setPipeline(pipe2D(ProgTexFS, 0, api.BlendNone))
		b.quad2D(0, H*0.70, W, H*0.30, 0, geom.V4(1, 1, 1, 1))

		// Slope: camera slides forward; world geometry is static so every
		// constants block changes with the camera.
		z := float32(f) * 0.8
		eye := geom.V3(0, 3, -z)
		cam := perspCam(p.Width, p.Height, eye, eye.Add(geom.V3(0, -0.35, -4)))
		b.setPipeline(pipe3D(ProgLambertFS, 1))
		// Two ground sections leapfrog ahead of the camera.
		for sec := 0; sec < 2; sec++ {
			secZ := -(float32(int(z/40)) + float32(sec)) * 40
			object(b, cam, geom.V4(1, 1, 1, 1), light, func(b *frameBuilder) {
				b.box3D(geom.V3(0, -0.5, secZ-20), geom.V3(12, 0.5, 20))
			})
		}
		// Trees / gates along the slope.
		b.setPipeline(pipe3D(ProgLambertFS, 2))
		for i := 0; i < 12; i++ {
			tz := -(float32(i)*7 + float32(int(z/84)*84))
			side := float32(1)
			if i%2 == 0 {
				side = -1
			}
			object(b, cam, geom.V4(0.6, 0.9, 0.6, 1), light, func(b *frameBuilder) {
				b.box3D(geom.V3(side*3.5, 0.8, tz), geom.V3(0.3, 0.8, 0.3))
			})
		}
		// The snowboarder, fixed relative to the camera.
		object(b, cam, geom.V4(0.9, 0.3, 0.3, 1), light, func(b *frameBuilder) {
			b.box3D(geom.V3(0.9*sinf(float64(f)/9), 0.4, -z-6), geom.V3(0.25, 0.4, 0.25))
		})

		tr.Frames = append(tr.Frames, b.done())
	}
	return tr
}

// buildTER: Temple Run — forward runner with a static sky strip and static
// HUD (~30% of tiles), everything else in continuous motion.
func buildTER(p Params) *api.Trace {
	tr := newTrace("ter", p, geom.V4(0.9, 0.6, 0.3, 1), []api.TextureSpec{
		{Kind: api.TexGradient, W: 32, H: 64, A: geom.V4(0.95, 0.65, 0.3, 1), B: geom.V4(0.85, 0.5, 0.35, 1), Filter: texture.Nearest},
		{Kind: api.TexNoise, W: 512, H: 512, Cell: 8, Seed: uint64(p.Seed) + 41, A: geom.V4(0.55, 0.45, 0.3, 1), Amp: 0.2, Filter: texture.Nearest},
		{Kind: api.TexChecker, W: 32, H: 32, Cell: 8, A: geom.V4(0.35, 0.3, 0.25, 1), B: geom.V4(0.3, 0.25, 0.2, 1), Filter: texture.Nearest},
	})
	W, H := float32(p.Width), float32(p.Height)
	light := geom.V4(0.2, 0.9, 0.4, 0.4)

	for f := 0; f < p.Frames; f++ {
		b := newFrame()
		// Sky band + HUD: screen-space, identical every frame.
		b.setMVP(ortho2D(p.Width, p.Height))
		b.setUniforms(4, geom.V4(1, 1, 1, 1))
		b.setPipeline(pipe2D(ProgTexFS, 0, api.BlendNone))
		b.quad2D(0, H*0.78, W, H*0.22, 0, geom.V4(1, 1, 1, 1))
		b.setPipeline(pipe2D(ProgVColorFS, 0, api.BlendNone))
		b.quad2D(4, 4, W*0.25, 16, 0, geom.V4(0.2, 0.2, 0.25, 1))
		b.quad2D(W-4-W*0.18, 4, W*0.18, 16, 0, geom.V4(0.2, 0.2, 0.25, 1))

		// Temple path rushing toward the camera.
		z := float32(f) * 1.1
		eye := geom.V3(0, 2, -z)
		cam := perspCam(p.Width, p.Height, eye, eye.Add(geom.V3(0, -0.25, -4)))
		b.setPipeline(pipe3D(ProgLambertFS, 1))
		for sec := 0; sec < 2; sec++ {
			secZ := -(float32(int(z/30)) + float32(sec)) * 30
			object(b, cam, geom.V4(1, 1, 1, 1), light, func(b *frameBuilder) {
				b.box3D(geom.V3(0, -0.5, secZ-15), geom.V3(3, 0.5, 15))
			})
		}
		// Side walls and gates.
		b.setPipeline(pipe3D(ProgLambertFS, 2))
		for i := 0; i < 10; i++ {
			wz := -(float32(i)*6 + float32(int(z/60)*60))
			object(b, cam, geom.V4(0.8, 0.75, 0.7, 1), light, func(b *frameBuilder) {
				b.box3D(geom.V3(-3.4, 1.2, wz), geom.V3(0.4, 1.2, 1))
				b.box3D(geom.V3(3.4, 1.2, wz), geom.V3(0.4, 1.2, 1))
			})
		}
		// The runner.
		object(b, cam, geom.V4(0.9, 0.8, 0.3, 1), light, func(b *frameBuilder) {
			b.box3D(geom.V3(1.2*sinf(float64(f)/6), 0.5, -z-5), geom.V3(0.25, 0.5, 0.25))
		})

		tr.Frames = append(tr.Frames, b.done())
	}
	return tr
}

// buildTIB: Tigerball — static camera physics puzzle: a ball rolls
// continuously, the rest of the scene is static except for short impulse
// bursts; one weight swings behind the main platform (occluded mover).
func buildTIB(p Params) *api.Trace {
	tr := newTrace("tib", p, geom.V4(0.25, 0.2, 0.3, 1), []api.TextureSpec{
		{Kind: api.TexChecker, W: 256, H: 256, Cell: 16, A: geom.V4(0.45, 0.4, 0.55, 1), B: geom.V4(0.4, 0.35, 0.5, 1), Filter: texture.Nearest},
		{Kind: api.TexNoise, W: 256, H: 256, Cell: 8, Seed: uint64(p.Seed) + 53, A: geom.V4(0.9, 0.6, 0.2, 1), Amp: 0.1, Filter: texture.Nearest},
	})
	light := geom.V4(0.4, 0.85, 0.35, 0.35)
	const impulsePeriod, impulseLen = 15, 5

	for f := 0; f < p.Frames; f++ {
		shake := float32(0)
		eye := geom.V3(0, 6, 11)
		if f%impulsePeriod < impulseLen {
			shake = 0.4 * sinf(float64(f)*2.1)
			eye = eye.Add(geom.V3(0.12*sinf(float64(f)*1.7), 0.08*cosf(float64(f)*2.3), 0))
		}
		cam := perspCam(p.Width, p.Height, eye, geom.V3(0, 1, 0))

		b := newFrame()
		b.setPipeline(pipe3D(ProgLambertFS, 0))
		object(b, cam, geom.V4(1, 1, 1, 1), light, func(b *frameBuilder) {
			b.groundPlane(0, 12, 5)
		})
		// Static platforms (they shake during impulses).
		for i := 0; i < 5; i++ {
			pos := geom.V3(float32(i-2)*3, 0.5+shake*float32(i%2), -1)
			object(b, cam, geom.V4(0.8, 0.8, 0.9, 1), light, func(b *frameBuilder) {
				b.box3D(pos, geom.V3(1.1, 0.5, 1.1))
			})
		}
		// Back wall occluder.
		object(b, cam, geom.V4(0.7, 0.7, 0.8, 1), light, func(b *frameBuilder) {
			b.box3D(geom.V3(0, 1.5, -4), geom.V3(5, 1.5, 0.3))
		})
		// The ball, rolling along the platforms.
		b.setPipeline(pipe3D(ProgLambertFS, 1))
		bt := float64(f) / 10
		object(b, cam, geom.V4(1, 0.8, 0.3, 1), light, func(b *frameBuilder) {
			b.box3D(geom.V3(5*sinf(bt), 1.5+0.4*absf(sinf(bt*3)), -0.5), geom.V3(0.7, 0.7, 0.7))
		})
		// Occluded swinging weight behind the back wall.
		object(b, cam, geom.V4(0.3, 0.9, 0.9, 1), light, func(b *frameBuilder) {
			b.box3D(geom.V3(3*sinf(float64(f)/5), 1.2, -4.8), geom.V3(0.35, 0.35, 0.35))
		})

		tr.Frames = append(tr.Frames, b.done())
	}
	return tr
}

func absf(v float32) float32 {
	if v < 0 {
		return -v
	}
	return v
}
