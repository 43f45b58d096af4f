package gpusim

import "rendelim/internal/energy"

// TrafficClass attributes DRAM bytes to their architectural source, the
// split of Figure 15b (colors / texels / primitives) plus the geometry-side
// classes.
type TrafficClass int

// Traffic classes.
const (
	TrafficVertex  TrafficClass = iota // vertex attribute fetch
	TrafficPBWrite                     // Parameter Buffer writes (geometry)
	TrafficPBRead                      // Parameter Buffer reads (Tile Cache)
	TrafficTexel                       // texture fetch
	TrafficColor                       // Color Buffer flush to Frame Buffer
	NumTrafficClasses
)

// String implements fmt.Stringer.
func (t TrafficClass) String() string {
	switch t {
	case TrafficVertex:
		return "vertex"
	case TrafficPBWrite:
		return "pb-write"
	case TrafficPBRead:
		return "primitives"
	case TrafficTexel:
		return "texels"
	case TrafficColor:
		return "colors"
	}
	return "?"
}

// TileClass is the Figure 15a classification of a tile against the frame
// two swaps back.
type TileClass int

// Tile classes.
const (
	TileEqColorEqInput   TileClass = iota // redundant and detected by RE
	TileEqColorDiffInput                  // RE false negative (12% avg in paper)
	TileDiffColor                         // genuinely changed
	TileEqInputDiffColor                  // must be zero (hash collision!)
	NumTileClasses
)

// String names the class for metrics labels and tables.
func (c TileClass) String() string {
	switch c {
	case TileEqColorEqInput:
		return "eq-color-eq-input"
	case TileEqColorDiffInput:
		return "eq-color-diff-input"
	case TileDiffColor:
		return "diff-color"
	case TileEqInputDiffColor:
		return "eq-input-diff-color"
	}
	return "?"
}

// PipeStage identifies one stage of the modeled pipeline for per-stage
// cycle attribution — the axis of the paper's overhead analysis, exposed
// through tracing spans and the resvc /metrics endpoint.
type PipeStage int

// Pipeline stages, in execution order.
const (
	StageVertex   PipeStage = iota // vertex fetch + vertex shading
	StageTiling                    // primitive assembly, binning, PB writes
	StageSigCheck                  // RE signature compute/compare + SU stalls
	StageRaster                    // PB fetch, triangle setup, quad traversal
	StageFragment                  // fragment shading + blending
	StageFlush                     // Color Buffer flush to DRAM
	NumPipeStages
)

// String implements fmt.Stringer.
func (p PipeStage) String() string {
	switch p {
	case StageVertex:
		return "vertex"
	case StageTiling:
		return "tiling"
	case StageSigCheck:
		return "sig-check"
	case StageRaster:
		return "raster"
	case StageFragment:
		return "fragment"
	case StageFlush:
		return "flush"
	}
	return "?"
}

// Stats aggregates one frame (or a whole run, via Add).
type Stats struct {
	Frames uint64

	GeometryCycles uint64
	RasterCycles   uint64
	SUStallCycles  uint64 // Signature Unit back-pressure included in GeometryCycles

	// StageCycles attributes cycles to individual pipeline stages
	// (timing.GeometryStageCycles / TileStageCycles). Stages overlap in
	// the pipeline model, so the array does not sum to TotalCycles.
	StageCycles [NumPipeStages]uint64

	// Tile accounting.
	TilesTotal   uint64
	TilesSkipped uint64 // RE bypassed the Raster Pipeline
	TileClasses  [NumTileClasses]uint64
	// TilesClassified counts tiles with both ground truth and signature
	// available (rendered tiles plus RE-skipped tiles, which are
	// equal-by-invariant).
	TilesClassified uint64

	// Fragment accounting.
	FragsRasterized uint64 // survived early-Z, entered shading decision
	FragsShaded     uint64 // actually executed the fragment shader
	FragsMemoReused uint64 // Memo LUT hits
	FragsEarlyZKill uint64
	QuadsTested     uint64

	// Geometry accounting.
	Vertices  uint64
	Triangles uint64 // post-clip, pre-cull
	Binned    uint64 // primitives binned (visible after cull)

	// Flush accounting (TE).
	FlushesDone    uint64
	FlushesSkipped uint64

	// Traffic per class, in DRAM bytes.
	Traffic [NumTrafficClasses]uint64

	// Energy-model activity.
	Activity energy.Activity
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Frames += o.Frames
	s.GeometryCycles += o.GeometryCycles
	s.RasterCycles += o.RasterCycles
	s.SUStallCycles += o.SUStallCycles
	for i := range s.StageCycles {
		s.StageCycles[i] += o.StageCycles[i]
	}
	s.TilesTotal += o.TilesTotal
	s.TilesSkipped += o.TilesSkipped
	for i := range s.TileClasses {
		s.TileClasses[i] += o.TileClasses[i]
	}
	s.TilesClassified += o.TilesClassified
	s.FragsRasterized += o.FragsRasterized
	s.FragsShaded += o.FragsShaded
	s.FragsMemoReused += o.FragsMemoReused
	s.FragsEarlyZKill += o.FragsEarlyZKill
	s.QuadsTested += o.QuadsTested
	s.Vertices += o.Vertices
	s.Triangles += o.Triangles
	s.Binned += o.Binned
	s.FlushesDone += o.FlushesDone
	s.FlushesSkipped += o.FlushesSkipped
	for i := range s.Traffic {
		s.Traffic[i] += o.Traffic[i]
	}
	s.Activity.Add(o.Activity)
}

// TotalCycles returns geometry + raster cycles.
func (s Stats) TotalCycles() uint64 { return s.GeometryCycles + s.RasterCycles }

// TotalTraffic returns total DRAM bytes.
func (s Stats) TotalTraffic() uint64 {
	var t uint64
	for _, v := range s.Traffic {
		t += v
	}
	return t
}

// RasterTraffic returns the Figure 15b subset: primitives read + texels +
// colors.
func (s Stats) RasterTraffic() uint64 {
	return s.Traffic[TrafficPBRead] + s.Traffic[TrafficTexel] + s.Traffic[TrafficColor]
}

// EqualColorFraction returns the Figure 2 metric: the fraction of classified
// tiles whose color matches the previous same-parity frame.
func (s Stats) EqualColorFraction() float64 {
	if s.TilesClassified == 0 {
		return 0
	}
	eq := s.TileClasses[TileEqColorEqInput] + s.TileClasses[TileEqColorDiffInput]
	return float64(eq) / float64(s.TilesClassified)
}

// SkipFraction returns the fraction of tiles RE bypassed.
func (s Stats) SkipFraction() float64 {
	if s.TilesTotal == 0 {
		return 0
	}
	return float64(s.TilesSkipped) / float64(s.TilesTotal)
}
