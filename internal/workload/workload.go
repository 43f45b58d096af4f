// Package workload synthesizes the benchmark suite of Table II. The ten
// commercial Android games cannot be redistributed, so each alias maps to a
// parameterized synthetic scene whose camera/animation profile reproduces
// the property Rendering Elimination actually depends on — the fraction and
// spatial locality of tile-input redundancy across frames — as well as the
// secondary effects the paper measures: occluded movers (equal colors with
// different inputs), flat-color regions under panning, and the mostly-black
// screens that make hop favor Fragment Memoization (Figure 16).
//
// Coherence classes (Section V / Figure 15a):
//
//	static cameras:   ccs cde coc ctr hop   (>85% equal tiles)
//	continuous:       mst                   (~0% equal tiles)
//	phase-mixed:      abi csn ter tib       (intermediate)
package workload

import (
	"fmt"

	"rendelim/internal/api"
	"rendelim/internal/rerr"
	"rendelim/internal/shader"
)

// Fingerprint identifies what the generators build: it is the CRC32 of
// internal/trace/testdata/golden.json, the encoded length and CRC32 of
// every alias at a fixed scale, which TestEncodeGolden requires. A change
// to any generator rewrites that golden and must move this constant with
// it; alias job keys sign it, so a trace another generator built is never
// served as this one's.
const Fingerprint uint32 = 0xc71e33ca

// Params scales a benchmark build.
type Params struct {
	Width, Height int
	Frames        int
	Seed          int64
}

// DefaultParams returns the experiment defaults: a quarter-scale screen
// (the paper simulates 1196x768; the shape of every result is resolution-
// independent) and the paper's 50-frame windows.
func DefaultParams() Params {
	return Params{Width: 480, Height: 272, Frames: 50, Seed: 1}
}

// Benchmark describes one Table II entry.
type Benchmark struct {
	Alias string
	Name  string
	Genre string
	Type  string // "2D" or "3D"
	Build func(Params) *api.Trace
}

// The standard shader program registry: every suite and extra trace carries
// this table, and the root package re-exports it for custom traces. Index 0
// is the transform vertex shader, the rest are fragment shaders.
const (
	ProgTransformVS = 0 // TransformVS(2)
	ProgFlatFS      = 1
	ProgVColorFS    = 2
	ProgTexFS       = 3
	ProgLambertFS   = 4
)

// StandardPrograms returns fresh copies of the registry, indexed by the
// Prog* ids.
func StandardPrograms() []*shader.Program {
	return []*shader.Program{
		shader.TransformVS(2),
		shader.FlatFS(),
		shader.VertexColorFS(),
		shader.TexturedFS(),
		shader.LambertTexFS(),
	}
}

// Suite returns the Table II benchmark suite in paper order.
func Suite() []Benchmark {
	return []Benchmark{
		{"ccs", "Candy Crush Saga", "Puzzle", "2D", buildCCS},
		{"cde", "Castle Defense", "Tower Defense", "2D", buildCDE},
		{"coc", "Clash of Clans", "MMO Strategy", "3D", buildCOC},
		{"ctr", "Cut the Rope", "Puzzle", "2D", buildCTR},
		{"hop", "Hopeless", "Survival Horror", "2D", buildHOP},
		{"mst", "Modern Strike", "First Person Shooter", "3D", buildMST},
		{"abi", "Angry Birds", "Arcade", "2D", buildABI},
		{"csn", "Crazy Snowboard", "Arcade", "3D", buildCSN},
		{"ter", "Temple Run", "Platform", "3D", buildTER},
		{"tib", "Tigerball", "Physics Puzzle", "3D", buildTIB},
	}
}

// ByAlias returns the named benchmark.
func ByAlias(alias string) (Benchmark, error) {
	for _, b := range Suite() {
		if b.Alias == alias {
			return b, nil
		}
	}
	for _, b := range Extras() {
		if b.Alias == alias {
			return b, nil
		}
	}
	return Benchmark{}, fmt.Errorf("workload: %w %q", rerr.ErrUnknownBenchmark, alias)
}

// Extras returns the non-suite reference workloads: the (near-idle)
// Android desktop and an Antutu-like GPU stress test used by Figure 1, and
// the adversarial scenes of the hash ablation.
func Extras() []Benchmark {
	return []Benchmark{
		{"desktop", "Android Desktop", "Launcher", "2D", buildDesktop},
		{"antutu", "Antutu 3D", "Synthetic Stress", "3D", buildAntutu},
		{"adversarial", "Adversarial Hash Stress", "Hash Ablation", "2D", buildAdversarial},
	}
}
