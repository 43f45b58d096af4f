package timing

import "testing"

// geometryTotal and tileTotal read a pipeline's total without its split.
func geometryTotal(p Params, w GeometryWork) uint64 {
	total, _, _ := p.GeometryCycles(w)
	return total
}

func tileTotal(p Params, w TileWork) uint64 {
	total, _, _, _, _ := p.TileCycles(w)
	return total
}

func TestGeometryBusiestStageWins(t *testing.T) {
	p := Default()
	// Vertex shading dominates here: 4000 instructions on 1 VP.
	w := GeometryWork{VSInstructions: 4000, VertexBytes: 800, Triangles: 100, BinTilePairs: 200}
	if got := geometryTotal(p, w); got != 4000 {
		t.Fatalf("geometry cycles = %d, want 4000", got)
	}
	// Binning dominates when a frame has huge tile fan-out.
	w = GeometryWork{VSInstructions: 10, BinTilePairs: 9000}
	if got := geometryTotal(p, w); got != 9000 {
		t.Fatalf("geometry cycles = %d, want 9000", got)
	}
}

func TestGeometryStallsAdd(t *testing.T) {
	p := Default()
	base := geometryTotal(p, GeometryWork{VSInstructions: 1000})
	stalled := geometryTotal(p, GeometryWork{VSInstructions: 1000, SUStallCycles: 50, VertexMissCycles: 100})
	if stalled <= base+50 {
		t.Fatalf("stalls not additive: %d vs %d", stalled, base)
	}
	// Overlap hides part of the miss latency.
	if stalled >= base+50+100 {
		t.Fatalf("miss overlap not applied: %d", stalled)
	}
}

func TestTileSkippedCostsOnlyCompare(t *testing.T) {
	p := Default()
	w := TileWork{FSInstructions: 100000, Quads: 64, CompareCycles: 4, Skipped: true}
	if got := tileTotal(p, w); got != 4 {
		t.Fatalf("skipped tile = %d cycles, want 4", got)
	}
}

func TestTileFragmentBoundTile(t *testing.T) {
	p := Default()
	// 256 fragments x 10 instructions / 4 FPs = 640 cycles dominate.
	w := TileWork{
		FetchBytes: 1024, SetupAttrs: 90, Quads: 64,
		FSInstructions: 2560, BlendFrags: 256, FlushBytes: 1024,
	}
	if got := tileTotal(p, w); got != 640 {
		t.Fatalf("tile cycles = %d, want 640", got)
	}
}

func TestTileFlushBoundWhenShadingTrivial(t *testing.T) {
	p := Default()
	// Flat-shaded tile: flush 1 KB at 4 B/cycle = 256 cycles dominates.
	w := TileWork{Quads: 64, FSInstructions: 256, BlendFrags: 256, FlushBytes: 1024}
	if got := tileTotal(p, w); got != 256 {
		t.Fatalf("tile cycles = %d, want 256", got)
	}
}

func TestTileStallsAdded(t *testing.T) {
	p := Default()
	w := TileWork{FSInstructions: 400, TexMissCycles: 400}
	base := tileTotal(p, TileWork{FSInstructions: 400})
	got := tileTotal(p, w)
	if got != base+uint64(float64(400)*(1-p.FragOverlap)) {
		t.Fatalf("tex stall = %d (base %d)", got, base)
	}
}

func TestTileCompareOverheadOnRenderedTile(t *testing.T) {
	p := Default()
	w := TileWork{FSInstructions: 400, CompareCycles: 4}
	if tileTotal(p, w) != tileTotal(p, TileWork{FSInstructions: 400})+4 {
		t.Fatal("compare cost should add to rendered tiles too")
	}
}

func TestSeconds(t *testing.T) {
	p := Default()
	if p.Seconds(uint64(p.FreqHz)) != 1 {
		t.Fatal("seconds conversion wrong")
	}
}

func TestDivCeilGuards(t *testing.T) {
	if divCeil(10, 0) != 10 {
		t.Fatal("divCeil by zero should pass through")
	}
	if divCeil(10, 4) != 3 {
		t.Fatal("divCeil wrong")
	}
	if maxU64() != 0 {
		t.Fatal("empty max should be 0")
	}
}

func TestGeometryStageCycles(t *testing.T) {
	p := Default()
	w := GeometryWork{
		VSInstructions: 1000, VertexBytes: 640, VertexMissCycles: 100,
		Triangles: 50, BinTilePairs: 200, PBWriteBytes: 4000, SUStallCycles: 7,
	}
	total, vertex, tiling := p.GeometryCycles(w)
	// vertex = max(1000/1, 640/16) + 100*(1-0.6) = 1000 + 40
	if vertex != 1040 {
		t.Fatalf("vertex stage = %d, want 1040", vertex)
	}
	// tiling = max(50, 200, 1000)
	if tiling != 1000 {
		t.Fatalf("tiling stage = %d, want 1000", tiling)
	}
	// total = max(1000, 40, 50, 200, 1000) + 40 + 7: the stages overlap.
	if total != 1047 {
		t.Fatalf("total = %d, want 1047", total)
	}
}

func TestTileStageCycles(t *testing.T) {
	p := Default()
	w := TileWork{
		FetchBytes: 320, FetchMissCycles: 10, SetupAttrs: 48, Quads: 64,
		FSInstructions: 400, TexMissCycles: 40, BlendFrags: 128, FlushBytes: 1024,
		CompareCycles: 4,
	}
	total, sig, raster, fragment, flush := p.TileCycles(w)
	if sig != 4 {
		t.Fatalf("sig = %d, want 4", sig)
	}
	// raster = max(320/16, 48/16, 64/1) + 10*(1-0.6) = 64 + 4
	if raster != 68 {
		t.Fatalf("raster = %d, want 68", raster)
	}
	// fragment = max(400/4, 128/4) + 40*(1-0.75) = 100 + 10
	if fragment != 110 {
		t.Fatalf("fragment = %d, want 110", fragment)
	}
	// flush = 1024/4
	if flush != 256 {
		t.Fatalf("flush = %d, want 256", flush)
	}
	// total = max(20, 3, 64, 100, 32, 256) + (4 + 10) + 4
	if total != 274 {
		t.Fatalf("total = %d, want 274", total)
	}

	// The total truncates the stalls' sum once, 1·0.4 + 3·0.25 = 1.15 → 1,
	// while each stage truncates its own stall to 0.
	total, _, raster, fragment, _ = p.TileCycles(TileWork{FetchMissCycles: 1, TexMissCycles: 3})
	if total != 1 || raster != 0 || fragment != 0 {
		t.Fatalf("stall truncation: total %d, raster %d, fragment %d; want 1, 0, 0", total, raster, fragment)
	}

	// A skipped tile collapses to the signature compare.
	total, sig, raster, fragment, flush = p.TileCycles(TileWork{CompareCycles: 4, Skipped: true})
	if total != 4 || sig != 4 || raster != 0 || fragment != 0 || flush != 0 {
		t.Fatalf("skipped tile = %d cycles in stages (%d,%d,%d,%d), want 4 in (4,0,0,0)", total, sig, raster, fragment, flush)
	}
}
