package fb

import (
	"testing"
	"testing/quick"
)

func TestTileBufferClear(t *testing.T) {
	var tb TileBuffer
	tb.Clear(0xFF00FF00)
	for i := range tb.Color {
		if tb.Color[i] != 0xFF00FF00 {
			t.Fatalf("clear failed at %d: %08x", i, tb.Color[i])
		}
	}
}

func TestTileGeometry(t *testing.T) {
	f := NewFrameBuffer(100, 40, 0) // 7x3 tiles, right/bottom partial
	if f.TilesX() != 7 || f.TilesY() != 3 || f.NumTiles() != 21 {
		t.Fatalf("tiles = %dx%d", f.TilesX(), f.TilesY())
	}
	r := f.TileRect(0)
	if r.Area() != 256 {
		t.Fatalf("tile 0 rect = %+v", r)
	}
	// Rightmost column tile: 100 - 6*16 = 4 px wide.
	r = f.TileRect(6)
	if r.X1-r.X0 != 4 || r.Y1-r.Y0 != 16 {
		t.Fatalf("partial tile rect = %+v", r)
	}
	// Bottom-right tile: 4 x 8.
	r = f.TileRect(20)
	if r.X1-r.X0 != 4 || r.Y1-r.Y0 != 8 {
		t.Fatalf("corner tile rect = %+v", r)
	}
}

func TestSwapAlternatesBuffers(t *testing.T) {
	f := NewFrameBuffer(16, 16, 0)
	back := f.Back()
	back[0] = 42
	f.Swap()
	if f.Front()[0] != 42 {
		t.Fatal("swap did not surface the back buffer")
	}
	if f.Back()[0] == 42 {
		t.Fatal("swap returned the same buffer")
	}
	f.Swap()
	if f.Back()[0] != 42 {
		t.Fatal("double swap should restore")
	}
}

func TestFlushAndEquality(t *testing.T) {
	f := NewFrameBuffer(32, 32, 0)
	var tb TileBuffer
	tb.Clear(0x11223344)

	if f.TileEqualsBack(0, &tb) {
		t.Fatal("fresh fb should differ from colored tile")
	}
	n := f.FlushTile(0, &tb)
	if n != 1024 {
		t.Fatalf("flush bytes = %d", n)
	}
	if !f.TileEqualsBack(0, &tb) {
		t.Fatal("tile should equal back after flush")
	}
	// A single pixel difference must be detected.
	tb.Color[Idx(7, 9)] ^= 1
	if f.TileEqualsBack(0, &tb) {
		t.Fatal("one-pixel difference missed")
	}
}

func TestFlushPartialTile(t *testing.T) {
	f := NewFrameBuffer(20, 20, 0) // right/bottom tiles are 4px
	var tb TileBuffer
	tb.Clear(0xAA)
	n := f.FlushTile(f.NumTiles()-1, &tb) // 4x4 corner tile
	if n != 4*4*4 {
		t.Fatalf("partial flush bytes = %d", n)
	}
	// The neighbouring tile's pixels must be untouched.
	if f.Back()[0] != 0 {
		t.Fatal("partial flush leaked outside its rect")
	}
}

// A flushed tile's colours land row-major in its rect of the back buffer.
func TestTileColorsRoundTrip(t *testing.T) {
	f := NewFrameBuffer(32, 16, 0)
	var tb TileBuffer
	for i := range tb.Color {
		tb.Color[i] = uint32(i) * 2654435761
	}
	if n := f.FlushTile(1, &tb); n != 4*TileSize*TileSize {
		t.Fatalf("flush bytes = %d", n)
	}
	r, back := f.TileRect(1), f.Back()
	for y := r.Y0; y < r.Y1; y++ {
		for x := r.X0; x < r.X1; x++ {
			if got, want := back[y*f.W+x], tb.Color[Idx(x-r.X0, y-r.Y0)]; got != want {
				t.Fatalf("pixel (%d,%d) = %08x, want %08x", x, y, got, want)
			}
		}
	}
}

func TestPixelAddrDistinctPerBuffer(t *testing.T) {
	f := NewFrameBuffer(16, 16, 0x8000)
	a := f.PixelAddr(3, 4)
	f.Swap()
	b := f.PixelAddr(3, 4)
	if a == b {
		t.Fatal("front/back pixel addresses must differ")
	}
	f.Swap()
	if f.PixelAddr(3, 4) != a {
		t.Fatal("address should return after double swap")
	}
}

func TestNewFrameBufferPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewFrameBuffer(0, 10, 0)
}

// Property: flushing a tile then comparing is always equal, for any tile id
// and contents.
func TestQuickFlushThenEqual(t *testing.T) {
	f := NewFrameBuffer(72, 40, 0)
	fquick := func(tileSeed uint16, fill uint32) bool {
		tile := int(tileSeed) % f.NumTiles()
		var tb TileBuffer
		for i := range tb.Color {
			tb.Color[i] = fill + uint32(i)
		}
		f.FlushTile(tile, &tb)
		return f.TileEqualsBack(tile, &tb)
	}
	if err := quick.Check(fquick, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: TileRect covers every pixel exactly once across all tiles.
func TestTilePartition(t *testing.T) {
	f := NewFrameBuffer(52, 36, 0)
	seen := make([]int, f.W*f.H)
	for tile := 0; tile < f.NumTiles(); tile++ {
		r := f.TileRect(tile)
		for y := r.Y0; y < r.Y1; y++ {
			for x := r.X0; x < r.X1; x++ {
				seen[y*f.W+x]++
			}
		}
	}
	for i, n := range seen {
		if n != 1 {
			t.Fatalf("pixel %d covered %d times", i, n)
		}
	}
}
