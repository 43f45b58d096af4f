package gpusim

import (
	"rendelim/internal/rast"
)

// frameArena owns every piece of per-frame scratch the simulator reuses
// across frames: the geometry phase's draw/triangle lists and signing
// buffers, the raster phase's per-tile result entries, and the frame's
// Stats accumulator. It exists so the frame hot path performs no steady-
// state allocations — each slice keeps its capacity across frames and only
// ever grows (amortized, workload-bounded), and the Stats value lives here
// rather than on RunFrame's stack so taking its address never forces a
// per-frame heap escape.
//
// Ownership rules (see DESIGN.md "Memory discipline"):
//
//   - The arena belongs to the Simulator and is reset — never reallocated —
//     at the top of RunFrame via beginFrame.
//   - Everything in it is dead outside the frame that filled it, except
//     what Baseline and TE keep for the next frame to reuse: the tile
//     results and the draw and triangle lists their bins index. RunFrame
//     returns Stats by value; nothing escapes the simulator.
//   - tileRes entries are handed to raster workers one tile each; a worker
//     touches only its own entry, so the arena needs no locking.
type frameArena struct {
	// stats accumulates the frame's statistics; RunFrame returns a copy.
	stats Stats

	// Raster phase: reusable tile results — one per tile, except on the
	// serial path of RE and Memo, which needs one; logs keep capacity.
	tileRes []tileResult

	// Geometry phase scratch. Under Baseline and TE, prevDraws and prevTris
	// hold the previous frame's lists, which the tiles' kept bins index.
	draws, prevDraws []drawRec
	tris, prevTris   []triRec
	pendingConsts    []byte
	primScratch      []byte
	clipScratch      []rast.Triangle
	shadedScratch    []rast.Vertex

	// crcBuf is the byte-serialization scratch for FrameBufferCRC.
	crcBuf []byte
}

// beginFrame resets the arena for a new frame, keeping all capacity; with
// keepPrev, the finished frame's draw and triangle lists become the
// previous ones.
func (a *frameArena) beginFrame(keepPrev bool) {
	a.stats = Stats{Frames: 1}
	if keepPrev {
		a.prevDraws, a.draws = a.draws, a.prevDraws
		a.prevTris, a.tris = a.tris, a.prevTris
	}
	a.draws = a.draws[:0]
	a.tris = a.tris[:0]
	a.pendingConsts = a.pendingConsts[:0]
}

// tiles returns n tile result entries, growing the backing array only when
// n does (i.e. never, for a fixed framebuffer and worker count). Entries
// are reset individually by decideTile.
func (a *frameArena) tiles(n int) []tileResult {
	if cap(a.tileRes) < n {
		a.tileRes = make([]tileResult, n)
	}
	return a.tileRes[:n]
}

// shaded returns vertex-shading scratch for nv vertices.
func (a *frameArena) shaded(nv int) []rast.Vertex {
	if cap(a.shadedScratch) < nv {
		a.shadedScratch = make([]rast.Vertex, nv)
	}
	return a.shadedScratch[:nv]
}
