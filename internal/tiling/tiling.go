// Package tiling implements the Tiling Engine of the baseline architecture
// (Section II): the Polygon List Builder, which sorts assembled screen-space
// primitives into per-tile bins and lays them out in the Parameter Buffer,
// and the address arithmetic the Tile Scheduler uses to fetch a tile's
// primitives back during the raster phase.
package tiling

import (
	"rendelim/internal/fb"
	"rendelim/internal/geom"
	"rendelim/internal/rast"
)

// PrimRef identifies a binned primitive: drawcall index within the frame
// and triangle index within the drawcall's post-clip triangle list.
type PrimRef struct {
	Draw int
	Tri  int
}

// Entry is one bin element: the primitive, plus its Parameter Buffer
// address/extent for traffic modeling.
type Entry struct {
	Ref      PrimRef
	Addr     uint64
	Bytes    int
	NumAttrs int
}

// PtrEntryBytes is the Parameter Buffer footprint of one per-tile pointer
// entry (tile lists store pointers to shared primitive data).
const PtrEntryBytes = 8

// Binner sorts primitives into tile bins for one frame.
type Binner struct {
	tilesX, tilesY int
	screen         geom.Rect
	bins           [][]Entry

	// Parameter Buffer allocation cursor and base address.
	pbBase uint64
	pbCur  uint64

	// Stats for the frame.
	PrimDataBytes uint64 // attribute data written to the Parameter Buffer
	PtrBytes      uint64 // per-tile pointer entries written
	TilePairs     uint64 // total (primitive, tile) pairs

	tileScratch []int
	exact       bool
}

// NewBinner builds a binner for a screen of w x h pixels; pbBase locates the
// Parameter Buffer in the simulated address map.
func NewBinner(w, h int, pbBase uint64) *Binner {
	tx := (w + fb.TileSize - 1) / fb.TileSize
	ty := (h + fb.TileSize - 1) / fb.TileSize
	return &Binner{
		tilesX: tx,
		tilesY: ty,
		screen: geom.Rect{X0: 0, Y0: 0, X1: w, Y1: h},
		bins:   make([][]Entry, tx*ty),
		pbBase: pbBase,
	}
}

// SetExact switches the binner to exact triangle-tile overlap tests instead
// of bounding-box binning. Bbox binning is what simple PLBs do; it binds
// sliver triangles into tiles they never cover, polluting those tiles'
// signatures and raster bins. Exact binning trades three edge-function
// evaluations per candidate tile for tighter bins — the ablation
// `reexp -figs binning` quantifies the effect on RE.
func (b *Binner) SetExact(on bool) { b.exact = on }

// Reset clears the bins and Parameter Buffer cursor for a new frame.
func (b *Binner) Reset() {
	for i := range b.bins {
		b.bins[i] = b.bins[i][:0]
	}
	b.pbCur = b.pbBase
	b.PrimDataBytes = 0
	b.PtrBytes = 0
	b.TilePairs = 0
}

// OverlappedTiles computes the tile ids the triangle overlaps: by screen
// bounding box (the conservative binning simple PLBs use) or, with SetExact,
// by testing each candidate tile against the triangle's edges. The returned
// slice is valid until the next call.
func (b *Binner) OverlappedTiles(st *rast.ScreenTri) []int {
	bb := st.BBox(b.screen)
	b.tileScratch = b.tileScratch[:0]
	if bb.Empty() {
		return b.tileScratch
	}
	tx0 := bb.X0 / fb.TileSize
	ty0 := bb.Y0 / fb.TileSize
	tx1 := (bb.X1 - 1) / fb.TileSize
	ty1 := (bb.Y1 - 1) / fb.TileSize
	for ty := ty0; ty <= ty1; ty++ {
		for tx := tx0; tx <= tx1; tx++ {
			if b.exact && !triOverlapsTile(st, tx, ty) {
				continue
			}
			b.tileScratch = append(b.tileScratch, ty*b.tilesX+tx)
		}
	}
	return b.tileScratch
}

// triOverlapsTile reports whether the triangle's area can intersect the
// tile rectangle: for each triangle edge, the tile's most-interior corner
// must not be fully outside. This is the standard conservative
// edge-vs-box test (exact for convex shapes up to float rounding).
func triOverlapsTile(st *rast.ScreenTri, tx, ty int) bool {
	x0 := float32(tx * fb.TileSize)
	y0 := float32(ty * fb.TileSize)
	x1 := x0 + fb.TileSize
	y1 := y0 + fb.TileSize
	// Orient edges so the interior is on the positive side.
	flip := float32(1)
	if st.Area2 < 0 {
		flip = -1
	}
	for i := 0; i < 3; i++ {
		j := (i + 1) % 3
		ax, ay := st.X[i], st.Y[i]
		ex := (st.X[j] - ax) * flip
		ey := (st.Y[j] - ay) * flip
		// Inward edge normal is n = (-ey, ex); evaluate the edge function
		// at the box corner farthest along n. If even that corner is
		// outside, the whole tile is outside this edge.
		nx, ny := -ey, ex
		cx, cy := x0, y0
		if nx > 0 {
			cx = x1
		}
		if ny > 0 {
			cy = y1
		}
		if nx*(cx-ax)+ny*(cy-ay) < 0 {
			return false
		}
	}
	return true
}

// Insert stores a primitive's attribute data in the Parameter Buffer and
// appends pointer entries to every overlapped tile's bin. attrBytes is the
// primitive's attribute payload (3 vertices x NumAttrs x 16 B). It returns
// the overlapped tile list (valid until the next OverlappedTiles/Insert).
func (b *Binner) Insert(st *rast.ScreenTri, ref PrimRef, numAttrs, attrBytes int) []int {
	tiles := b.OverlappedTiles(st)
	if len(tiles) == 0 {
		return tiles
	}
	addr := b.pbCur
	b.pbCur += uint64(attrBytes)
	b.PrimDataBytes += uint64(attrBytes)
	for _, tile := range tiles {
		b.bins[tile] = append(b.bins[tile], Entry{Ref: ref, Addr: addr, Bytes: attrBytes, NumAttrs: numAttrs})
		b.PtrBytes += PtrEntryBytes
		b.TilePairs++
	}
	return tiles
}

// Bin returns tile's primitive list in submission order.
func (b *Binner) Bin(tile int) []Entry { return b.bins[tile] }

// WrittenBytes returns the total Parameter Buffer write traffic this frame.
func (b *Binner) WrittenBytes() uint64 { return b.PrimDataBytes + b.PtrBytes }

// PtrAddr returns the simulated address of a tile's pointer list; the tile
// lists live after the primitive data region.
func (b *Binner) PtrAddr(tile int) uint64 {
	return b.pbBase + (1 << 26) + uint64(tile)*4096
}
