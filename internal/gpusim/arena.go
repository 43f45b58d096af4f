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
//     what a later frame may reuse: the tile results and the draw and
//     triangle lists their bins index, kept one frame under Baseline and TE
//     and two under Memo. RunFrame returns Stats by value; nothing escapes
//     the simulator.
//   - tileRes entries are handed to raster workers one tile each; a worker
//     touches only its own entry, so the arena needs no locking.
type frameArena struct {
	// stats accumulates the frame's statistics; RunFrame returns a copy.
	stats Stats

	// Raster phase: reusable tile results — one per tile and kept frame
	// (frameTiles), except on RE's serial path, which needs one; logs keep
	// capacity.
	tileRes []tileResult

	// Geometry phase scratch: the frame's own lists, and in past[i] those of
	// the frame i+1 back, which the tiles' kept bins index.
	frameLists
	past          [2]frameLists
	pendingConsts []byte
	primScratch   []byte
	clipScratch   []rast.Triangle
	shadedScratch []rast.Vertex

	// crcBuf is the byte-serialization scratch for FrameBufferCRC.
	crcBuf []byte
}

// frameLists are one frame's draw and triangle lists.
type frameLists struct {
	draws []drawRec
	tris  []triRec
}

// beginFrame resets the arena for a new frame, keeping all capacity. The
// lists of the last keep frames rotate through past: the finished frame's
// become past[0], and the oldest kept become the new frame's scratch.
func (a *frameArena) beginFrame(keep int) {
	a.stats = Stats{Frames: 1}
	if keep > 0 {
		done := a.frameLists
		a.frameLists = a.past[keep-1]
		copy(a.past[1:keep], a.past[:keep-1])
		a.past[0] = done
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
