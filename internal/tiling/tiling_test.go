package tiling

import (
	"testing"

	"rendelim/internal/geom"
	"rendelim/internal/rast"
)

// tri builds a screen-space triangle over a w x h screen.
func tri(t *testing.T, w, h int, pts [3][2]float32) rast.ScreenTri {
	t.Helper()
	var tr rast.Triangle
	for i, p := range pts {
		tr.V[i].Pos = geom.V4(2*p[0]/float32(w)-1, 1-2*p[1]/float32(h), 0, 1)
	}
	st, ok := rast.Setup(tr, w, h, false)
	if !ok {
		t.Fatal("setup failed")
	}
	return st
}

func TestOverlappedTilesSingleTile(t *testing.T) {
	b := NewBinner(64, 64, 0) // 4x4 tiles
	st := tri(t, 64, 64, [3][2]float32{{2, 2}, {10, 2}, {2, 10}})
	tiles := b.OverlappedTiles(&st)
	if len(tiles) != 1 || tiles[0] != 0 {
		t.Fatalf("tiles = %v", tiles)
	}
}

func TestOverlappedTilesSpanning(t *testing.T) {
	b := NewBinner(64, 64, 0)
	// Bbox spans x 8..40 (tiles 0..2), y 8..24 (tiles 0..1).
	st := tri(t, 64, 64, [3][2]float32{{8, 8}, {40, 8}, {8, 24}})
	tiles := b.OverlappedTiles(&st)
	want := map[int]bool{0: true, 1: true, 2: true, 4: true, 5: true, 6: true}
	if len(tiles) != len(want) {
		t.Fatalf("tiles = %v", tiles)
	}
	for _, tile := range tiles {
		if !want[tile] {
			t.Fatalf("unexpected tile %d in %v", tile, tiles)
		}
	}
}

func TestOverlappedTilesOffscreen(t *testing.T) {
	b := NewBinner(64, 64, 0)
	st := tri(t, 64, 64, [3][2]float32{{-50, -50}, {-10, -50}, {-50, -10}})
	if tiles := b.OverlappedTiles(&st); len(tiles) != 0 {
		t.Fatalf("offscreen triangle binned to %v", tiles)
	}
}

func TestInsertAccountsTraffic(t *testing.T) {
	b := NewBinner(64, 64, 0x100000)
	st := tri(t, 64, 64, [3][2]float32{{8, 8}, {40, 8}, {8, 24}})
	tiles := b.Insert(&st, PrimRef{Draw: 1, Tri: 2}, 3, 144)
	if len(tiles) != 6 {
		t.Fatalf("tiles = %v", tiles)
	}
	if b.PrimDataBytes != 144 {
		t.Fatalf("prim data bytes = %d", b.PrimDataBytes)
	}
	if b.PtrBytes != 6*PtrEntryBytes || b.TilePairs != 6 {
		t.Fatalf("ptr accounting: %d bytes, %d pairs", b.PtrBytes, b.TilePairs)
	}
	if b.WrittenBytes() != 144+48 {
		t.Fatalf("written = %d", b.WrittenBytes())
	}
	for _, tile := range tiles {
		bin := b.Bin(tile)
		if len(bin) != 1 || bin[0].Ref != (PrimRef{Draw: 1, Tri: 2}) || bin[0].Bytes != 144 {
			t.Fatalf("bin %d = %+v", tile, bin)
		}
	}
}

func TestPrimitiveDataSharedAcrossTiles(t *testing.T) {
	b := NewBinner(64, 64, 0)
	st := tri(t, 64, 64, [3][2]float32{{0, 0}, {63, 0}, {0, 63}})
	tiles := b.Insert(&st, PrimRef{}, 3, 144)
	if len(tiles) != 16 {
		t.Fatalf("full-screen triangle bbox should hit all 16 tiles, got %d", len(tiles))
	}
	// Attribute data is written once; tiles share the same PB address.
	addr := b.Bin(tiles[0])[0].Addr
	for _, tile := range tiles[1:] {
		if b.Bin(tile)[0].Addr != addr {
			t.Fatal("primitive data duplicated per tile")
		}
	}
	if b.PrimDataBytes != 144 {
		t.Fatalf("prim data bytes = %d", b.PrimDataBytes)
	}
}

func TestResetClears(t *testing.T) {
	b := NewBinner(64, 64, 0)
	st := tri(t, 64, 64, [3][2]float32{{2, 2}, {10, 2}, {2, 10}})
	b.Insert(&st, PrimRef{}, 3, 144)
	b.Reset()
	if b.WrittenBytes() != 0 || len(b.Bin(0)) != 0 || b.TilePairs != 0 {
		t.Fatal("reset incomplete")
	}
	// Address allocation restarts.
	tiles := b.Insert(&st, PrimRef{}, 3, 96)
	if b.Bin(tiles[0])[0].Addr != 0 {
		t.Fatalf("PB cursor not reset: %#x", b.Bin(tiles[0])[0].Addr)
	}
}

func TestSequentialPBAddresses(t *testing.T) {
	b := NewBinner(64, 64, 0)
	st := tri(t, 64, 64, [3][2]float32{{2, 2}, {10, 2}, {2, 10}})
	b.Insert(&st, PrimRef{Tri: 0}, 3, 144)
	b.Insert(&st, PrimRef{Tri: 1}, 3, 144)
	bin := b.Bin(0)
	if bin[1].Addr-bin[0].Addr != 144 {
		t.Fatalf("addresses not sequential: %#x %#x", bin[0].Addr, bin[1].Addr)
	}
}

// A screen whose size is not a multiple of the tile size ends in partial
// tiles: 100x40 is 7x3 tiles, and a triangle in the bottom-right corner
// bins into the last of them.
func TestNumTilesPartialScreen(t *testing.T) {
	b := NewBinner(100, 40, 0)
	st := tri(t, 100, 40, [3][2]float32{{97, 37}, {99, 37}, {97, 39}})
	if tiles := b.Insert(&st, PrimRef{}, 3, 144); len(tiles) != 1 || tiles[0] != 7*3-1 {
		t.Fatalf("corner triangle binned into %v, want [%d]", tiles, 7*3-1)
	}
	if n := len(b.Bin(7*3 - 1)); n != 1 {
		t.Fatalf("last tile's bin holds %d entries, want 1", n)
	}
}

func TestPtrAddrDistinct(t *testing.T) {
	b := NewBinner(64, 64, 0)
	seen := map[uint64]bool{}
	for tile := 0; tile < 4*4; tile++ {
		a := b.PtrAddr(tile)
		if seen[a] {
			t.Fatalf("duplicate pointer list address %#x", a)
		}
		seen[a] = true
	}
}
