// Package fb provides the framebuffer machinery of the baseline TBR GPU
// (Section II): the small on-chip Color/Depth buffers a tile is rendered
// into, and the system-memory Frame Buffer with the Front/Back double
// buffering that Section IV-C makes explicit — signatures and tile-equality
// comparisons are against the frame *two* swaps back, because the GPU writes
// the Back Buffer while the display scans the Front Buffer.
package fb

import (
	"fmt"

	"rendelim/internal/geom"
	"rendelim/internal/wire"
)

// TileSize is the tile edge in pixels (Table I: 16x16).
const TileSize = 16

// TileBuffer is the on-chip Color Buffer of one tile in flight. The depth
// buffer is the renderer's own scratch: nothing after a tile's render reads
// it.
type TileBuffer struct {
	Color [TileSize * TileSize]uint32
}

// Clear resets the tile to the clear color.
func (t *TileBuffer) Clear(color uint32) {
	for i := range t.Color {
		t.Color[i] = color
	}
}

// Idx returns the linear index of in-tile pixel (x,y).
func Idx(x, y int) int { return y*TileSize + x }

// FrameBuffer is the double-buffered system-memory frame store. Addresses
// are simulated: Base locates the buffers in the GPU's address map so color
// traffic is attributable in the DRAM model.
type FrameBuffer struct {
	W, H  int
	Base  uint64
	bufs  [2][]uint32
	front int // index of the buffer being displayed
}

// NewFrameBuffer allocates both buffers, cleared to black.
func NewFrameBuffer(w, h int, base uint64) *FrameBuffer {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("fb: invalid size %dx%d", w, h))
	}
	return &FrameBuffer{
		W: w, H: h, Base: base,
		bufs: [2][]uint32{make([]uint32, w*h), make([]uint32, w*h)},
	}
}

// TilesX returns the number of tile columns (partial tiles included).
func (f *FrameBuffer) TilesX() int { return (f.W + TileSize - 1) / TileSize }

// TilesY returns the number of tile rows.
func (f *FrameBuffer) TilesY() int { return (f.H + TileSize - 1) / TileSize }

// NumTiles returns the tile count of one frame.
func (f *FrameBuffer) NumTiles() int { return f.TilesX() * f.TilesY() }

// TileRect returns the pixel rectangle of tile id, clipped to the screen.
func (f *FrameBuffer) TileRect(tile int) geom.Rect {
	tx := tile % f.TilesX()
	ty := tile / f.TilesX()
	r := geom.Rect{
		X0: tx * TileSize, Y0: ty * TileSize,
		X1: tx*TileSize + TileSize, Y1: ty*TileSize + TileSize,
	}
	return r.Intersect(geom.Rect{X0: 0, Y0: 0, X1: f.W, Y1: f.H})
}

// Back returns the buffer the GPU is currently rendering into.
func (f *FrameBuffer) Back() []uint32 { return f.bufs[1-f.front] }

// Front returns the buffer being displayed.
func (f *FrameBuffer) Front() []uint32 { return f.bufs[f.front] }

// Swap exchanges front and back at end of frame.
func (f *FrameBuffer) Swap() { f.front = 1 - f.front }

// PixelAddr returns the simulated memory address of pixel (x,y) in the back
// buffer.
func (f *FrameBuffer) PixelAddr(x, y int) uint64 {
	off := uint64(y*f.W+x) * 4
	if f.front == 0 {
		off += uint64(f.W*f.H) * 4
	}
	return f.Base + off
}

// TileEqualsBack reports whether the tile's freshly rendered contents (in
// tb) are identical to what the back buffer already holds — i.e. to the
// frame two swaps ago. This is the ground-truth "equal colors" oracle of
// Figures 2 and 15a.
func (f *FrameBuffer) TileEqualsBack(tile int, tb *TileBuffer) bool {
	r := f.TileRect(tile)
	back := f.Back()
	for y := r.Y0; y < r.Y1; y++ {
		row := y * f.W
		ty := y - r.Y0
		for x := r.X0; x < r.X1; x++ {
			if back[row+x] != tb.Color[Idx(x-r.X0, ty)] {
				return false
			}
		}
	}
	return true
}

// FlushTile copies the tile buffer into the back buffer (the Tile Flush
// stage) and returns the number of bytes written.
func (f *FrameBuffer) FlushTile(tile int, tb *TileBuffer) int {
	r := f.TileRect(tile)
	back := f.Back()
	for y := r.Y0; y < r.Y1; y++ {
		row := y * f.W
		ty := y - r.Y0
		for x := r.X0; x < r.X1; x++ {
			back[row+x] = tb.Color[Idx(x-r.X0, ty)]
		}
	}
	return r.Area() * 4
}

// AppendState appends the display orientation and both buffers, for
// simulator checkpoints.
func (f *FrameBuffer) AppendState(b []byte) []byte {
	b = wire.AppendI64(b, int64(f.front))
	b = wire.AppendU32s(b, f.bufs[0])
	return wire.AppendU32s(b, f.bufs[1])
}

// ReadState reads what AppendState wrote into the framebuffer's own
// buffers. A buffer length other than W×H, or a front index other than 0 or
// 1, latches wire.ErrCorrupt on r.
func (f *FrameBuffer) ReadState(r *wire.Reader) {
	f.front = r.Index(len(f.bufs))
	r.ReadU32s(f.bufs[0])
	r.ReadU32s(f.bufs[1])
}
