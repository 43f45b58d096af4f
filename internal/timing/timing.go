// Package timing is the cycle model of the Mali-450-like baseline (Table I).
// The two decoupled pipelines are modeled at stage-throughput granularity:
// each stage's occupancy for a frame (geometry) or a tile (raster) is
// computed from measured work counts, the pipeline runs at the pace of its
// slowest stage, and memory stalls that the pipeline cannot hide are added
// on top. Skipped (redundant) tiles collapse to the signature-compare cost,
// which is how Rendering Elimination's speedup emerges.
package timing

// Params holds the Table I throughput parameters.
type Params struct {
	FreqHz             float64
	VertexProcessors   int
	FragmentProcessors int
	// Non-programmable stage throughputs.
	TrianglesPerCycle      int // primitive assembly
	RasterAttrsPerCycle    int // triangle setup: interpolant setup rate
	QuadsPerCycle          int // rasterizer traversal + early-Z
	BlendFragsPerCycle     int // blending into the on-chip color buffer
	VFetchBytesPerCycle    int // vertex fetcher
	TileFetchBytesPerCycle int // tile scheduler reading the Parameter Buffer
	FlushBytesPerCycle     int // color buffer flush to DRAM (bandwidth bound)
	// MissOverlap is the fraction of memory-miss latency the pipeline
	// hides (prefetch, multithreading). Geometry and raster pipelines
	// use GeomOverlap and FragOverlap respectively.
	GeomOverlap float64
	FragOverlap float64
}

// Default returns the Table I configuration at 400 MHz.
func Default() Params {
	return Params{
		FreqHz:                 400e6,
		VertexProcessors:       1,
		FragmentProcessors:     4,
		TrianglesPerCycle:      1,
		RasterAttrsPerCycle:    16,
		QuadsPerCycle:          1,
		BlendFragsPerCycle:     4,
		VFetchBytesPerCycle:    16,
		TileFetchBytesPerCycle: 16,
		FlushBytesPerCycle:     4,
		GeomOverlap:            0.6,
		FragOverlap:            0.75,
	}
}

// GeometryWork is a frame's geometry-phase activity.
type GeometryWork struct {
	VSInstructions   uint64
	VertexBytes      uint64 // attribute bytes fetched by the Vertex Fetcher
	VertexMissCycles uint64 // vertex-cache miss latency (beyond hit time)
	Triangles        uint64 // through primitive assembly
	BinTilePairs     uint64 // (primitive, tile) pairs the PLB emits
	PBWriteBytes     uint64 // Parameter Buffer write traffic
	SUStallCycles    uint64 // Signature Unit OT-queue back-pressure (RE)
}

// GeometryCycles returns the geometry-pipeline occupancy for a frame. The
// pipelined stages run concurrently, so the frame takes as long as its
// busiest stage plus unhidden memory stalls and SU stalls.
//
// It also splits the work into per-stage occupancies for attribution
// (tracing, /metrics): vertex covers the programmable front end (fetch +
// shading, with unhidden miss stalls), tiling covers primitive assembly,
// binning and Parameter Buffer writes. The pipeline model overlaps these
// stages, so the split does not sum to total — it answers "where would
// time go without overlap".
func (p Params) GeometryCycles(w GeometryWork) (total, vertex, tiling uint64) {
	vs := divCeil(w.VSInstructions, uint64(p.VertexProcessors))
	fetch := divCeil(w.VertexBytes, uint64(p.VFetchBytesPerCycle))
	stall := uint64(float64(w.VertexMissCycles) * (1 - p.GeomOverlap))
	pa := divCeil(w.Triangles, uint64(p.TrianglesPerCycle))
	bin := w.BinTilePairs // 1 tile id per cycle
	pbBW := divCeil(w.PBWriteBytes, 4)
	front, back := maxU64(vs, fetch), maxU64(pa, bin, pbBW)
	return maxU64(front, back) + stall + w.SUStallCycles, front + stall, back
}

// TileWork is one tile's raster-phase activity.
type TileWork struct {
	FetchBytes      uint64 // Parameter Buffer bytes the Tile Scheduler reads
	FetchMissCycles uint64 // tile-cache miss latency beyond hit time
	SetupAttrs      uint64 // triangle-setup interpolants (3 verts x attrs)
	Quads           uint64 // quads traversed / early-Z tested
	FSInstructions  uint64
	TexMissCycles   uint64 // texture-cache miss latency beyond hit time
	BlendFrags      uint64
	FlushBytes      uint64 // color flush to the Frame Buffer (0 if skipped)
	CompareCycles   uint64 // RE signature check (a few cycles)
	Skipped         bool   // RE bypassed the tile entirely
}

// TileCycles returns the raster-pipeline occupancy for one tile and, as
// GeometryCycles does, its split into stages: sig is the RE signature
// compare, raster covers Parameter Buffer fetch, triangle setup and quad
// traversal (with unhidden fetch stalls), fragment covers shading and
// blending (with unhidden texture stalls), and flush the Color Buffer
// writeback. A skipped tile costs its compare alone.
func (p Params) TileCycles(w TileWork) (total, sig, raster, fragment, flush uint64) {
	sig = w.CompareCycles
	if w.Skipped {
		return sig, sig, 0, 0, 0
	}
	fetch := divCeil(w.FetchBytes, uint64(p.TileFetchBytesPerCycle))
	setup := divCeil(w.SetupAttrs, uint64(p.RasterAttrsPerCycle))
	quads := divCeil(w.Quads, uint64(p.QuadsPerCycle))
	fs := divCeil(w.FSInstructions, uint64(p.FragmentProcessors))
	blend := divCeil(w.BlendFrags, uint64(p.BlendFragsPerCycle))
	flush = divCeil(w.FlushBytes, uint64(p.FlushBytesPerCycle))
	fetchStall := float64(w.FetchMissCycles) * (1 - p.GeomOverlap)
	texStall := float64(w.TexMissCycles) * (1 - p.FragOverlap)
	front, back := maxU64(fetch, setup, quads), maxU64(fs, blend)
	// The total truncates the stalls' sum once; each stage its own stall.
	total = maxU64(front, back, flush) + uint64(fetchStall+texStall) + sig
	return total, sig, front + uint64(fetchStall), back + uint64(texStall), flush
}

// Seconds converts cycles to wall-clock time at the configured frequency.
func (p Params) Seconds(cycles uint64) float64 { return float64(cycles) / p.FreqHz }

func divCeil(a, b uint64) uint64 {
	if b == 0 {
		return a
	}
	return (a + b - 1) / b
}

func maxU64(vs ...uint64) uint64 {
	var m uint64
	for _, v := range vs {
		if v > m {
			m = v
		}
	}
	return m
}
