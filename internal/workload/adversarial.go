package workload

import (
	"rendelim/internal/api"
	"rendelim/internal/geom"
	"rendelim/internal/texture"
)

// buildAdversarial returns the hash-ablation stress workload: scenes engineered
// so that weak (order- or position-insensitive) signature functions alias
// genuinely different tile inputs while CRC32 does not. Used by the Section
// III-B / V hash comparison ("CRC32 outperforms well-known hashing
// approaches such as XOR-based schemes").
//
// Construction: two overlapping opaque quads with different colors are drawn
// in an order that flips every two frames. The draw *order* is the only
// difference between a frame and the frame two swaps back, so:
//
//   - the final color flips (the later quad wins),
//   - an order-insensitive signature (xor-fold, add32) is identical →
//     a false positive: RE would reuse stale, wrong colors;
//   - CRC32 differs → the tile renders correctly.
//
// A second region swaps the x/y coordinates of a sprite between frames
// (word-transposition), aliasing under xor-fold but not under CRC32.
func buildAdversarial(p Params) *api.Trace {
	tr := newTrace("adversarial", p, geom.V4(0, 0, 0, 1), []api.TextureSpec{
		{Kind: api.TexChecker, W: 16, H: 16, Cell: 4, A: geom.V4(1, 1, 1, 1), B: geom.V4(0.8, 0.8, 0.8, 1), Filter: texture.Nearest},
	})
	W, H := float32(p.Width), float32(p.Height)
	red := geom.V4(1, 0.1, 0.1, 1)
	blue := geom.V4(0.1, 0.1, 1, 1)

	for f := 0; f < p.Frames; f++ {
		flip := (f/2)%2 == 1
		b := newFrame()
		b.setMVP(ortho2D(p.Width, p.Height))
		b.setUniforms(4, geom.V4(1, 1, 1, 1))
		b.setPipeline(pipe2D(ProgVColorFS, 0, api.BlendNone))

		// Region 1: order-swap. Both quads cover the same screen area; only
		// submission order changes, so the visible color flips.
		first, second := red, blue
		if flip {
			first, second = blue, red
		}
		b.quad2D(0, 0, W*0.45, H, 0, first)
		b.flush() // separate drawcalls so primitive order is a block order
		b.quad2D(0, 0, W*0.45, H, 0, second)
		b.flush()

		// Region 2: coordinate transposition. A sprite sits at (a,b) in
		// even pairs and (b,a) in odd pairs; the two placements xor-fold to
		// the same word set.
		ax, ay := W*0.60, W*0.70
		if flip {
			ax, ay = ay, ax
		}
		b.quad2D(ax, ay-W*0.5, 24, 24, 0, geom.V4(0.3, 1, 0.3, 1))
		b.flush()

		// Region 3: honest static content, so redundancy detection still
		// has something to find.
		b.quad2D(W*0.5, 10, W*0.45, H*0.25, 0, geom.V4(0.6, 0.6, 0.2, 1))

		tr.Frames = append(tr.Frames, b.done())
	}
	return tr
}
