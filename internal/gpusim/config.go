// Package gpusim integrates every substrate into the full TBR GPU simulator
// of Figure 4: it replays an api.Trace through the Geometry and Raster
// pipelines, rendering real pixels while accounting cycles (internal/timing),
// cache and DRAM traffic (internal/cache, internal/dram) and energy
// (internal/energy), under one of four techniques — the Baseline GPU,
// Rendering Elimination (the paper's contribution), Transaction Elimination,
// and PFR-aided Fragment Memoization.
//
// RE rests on a tile's colours being a pure function of its inputs: the
// attributes of every primitive that overlaps it and the constants of their
// drawcalls. The simulator wires the Signature Unit (internal/sig) the way
// Figure 5 shows. The geometry phase feeds it constants blocks and binned
// primitives, which build one CRC32 per tile in the Signature Buffer. At
// raster scheduling each tile's signature is compared once with the one of
// the frame two swaps back, whose colours the Back Buffer holds (Section
// IV-C). An equal signature bypasses the tile's whole Raster Pipeline. The
// driver-level disable rules of Section III-E are two per-frame flags of
// the Simulator.
package gpusim

import (
	"fmt"
	"math"
	"runtime"

	"rendelim/internal/cache"
	"rendelim/internal/crc"
	"rendelim/internal/dram"
	"rendelim/internal/obs"
	"rendelim/internal/rerr"
	"rendelim/internal/sig"
	"rendelim/internal/timing"
	"rendelim/internal/wire"
)

// Technique selects the redundancy-elimination scheme under evaluation.
type Technique uint8

// Techniques.
const (
	Baseline Technique = iota // conventional TBR GPU
	RE                        // Rendering Elimination (this paper)
	TE                        // Transaction Elimination (ARM) [16]
	Memo                      // PFR-aided Fragment Memoization [17]
)

// String implements fmt.Stringer.
func (t Technique) String() string {
	switch t {
	case Baseline:
		return "base"
	case RE:
		return "re"
	case TE:
		return "te"
	case Memo:
		return "memo"
	}
	return fmt.Sprintf("technique(%d)", uint8(t))
}

// ParseTechnique is the inverse of String, for flags and request payloads.
func ParseTechnique(s string) (Technique, error) {
	switch s {
	case "base", "baseline":
		return Baseline, nil
	case "re":
		return RE, nil
	case "te":
		return TE, nil
	case "memo":
		return Memo, nil
	}
	return Baseline, fmt.Errorf("unknown technique %q (want base, re, te or memo)", s)
}

// SkippedStages returns the Raster Pipeline stages the technique bypasses on
// a redundant tile/fragment, encoding Figure 3.
func (t Technique) SkippedStages() []string {
	switch t {
	case RE:
		return []string{"tile-scheduler", "rasterizer", "early-depth", "fragment-processing", "blend", "tile-flush"}
	case TE:
		return []string{"tile-flush"}
	case Memo:
		return []string{"fragment-processing"}
	}
	return nil
}

// Config parameterizes one simulation.
type Config struct {
	// Technique under test.
	Technique Technique

	// Timing and memory models.
	Timing timing.Params
	DRAM   dram.Config

	// Cache geometries (Table I).
	VertexCache  cache.Config
	TextureCache cache.Config // one of the four identical texture caches
	TileCache    cache.Config
	L2Cache      cache.Config

	// Signature Unit configuration (used by RE and, for color signing, TE).
	Sig sig.Config

	// RefreshInterval forces a full render every n-th frame when > 0, the
	// Frame Buffer refresh guarantee of Section III-E.
	RefreshInterval int

	// ExactBinning switches the Polygon List Builder from bounding-box to
	// exact triangle-tile overlap tests; tighter bins mean fewer polluted
	// signatures (fewer RE false negatives) at extra binning cost.
	ExactBinning bool

	// MemoLUTEntries caps each tile's Fragment Memoization table (Section
	// V-A's LUT holds 2048 entries; the hash discards screen coordinates
	// and 2 frames render in parallel).
	MemoLUTEntries int

	// Tracer, when non-nil, records a Chrome trace-event timeline of the
	// run: one span per frame with nested per-stage spans and instant
	// events for tile eliminations. Nil (the default) costs nothing on the
	// simulation hot path. Excluded from the job signature: tracing never
	// changes results.
	Tracer *obs.Tracer `json:"-"`

	// TileWorkers sets how many host goroutines render tiles concurrently
	// during the raster phase: 0 or 1 runs serially, n > 1 uses exactly n
	// workers, and a negative value uses one worker per host CPU
	// (runtime.GOMAXPROCS). This is host parallelism only — simulated
	// cycles, traffic, classifications and pixels are byte-identical at any
	// worker count (see parallel.go) — so it is excluded from the job
	// signature, like Tracer.
	TileWorkers int `json:"-"`
}

// TileWorkerCount resolves a TileWorkers value to the number of raster
// goroutines it runs: negative means one per host CPU, and anything below
// 1 means 1 (serial).
func TileWorkerCount(n int) int {
	if n < 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return max(n, 1)
}

// DefaultConfig returns the Table I configuration.
func DefaultConfig() Config {
	return Config{
		Technique: Baseline,
		Timing:    timing.Default(),
		DRAM:      dram.Default(),
		VertexCache: cache.Config{
			Name: "vertex", LineBytes: 64, Ways: 2, SizeBytes: 4 << 10, Banks: 1, Latency: 1,
		},
		TextureCache: cache.Config{
			Name: "texture", LineBytes: 64, Ways: 2, SizeBytes: 8 << 10, Banks: 1, Latency: 1,
		},
		TileCache: cache.Config{
			Name: "tile", LineBytes: 64, Ways: 8, SizeBytes: 128 << 10, Banks: 8, Latency: 1,
		},
		L2Cache: cache.Config{
			Name: "l2", LineBytes: 64, Ways: 8, SizeBytes: 256 << 10, Banks: 8, Latency: 2,
		},
		Sig:             sig.DefaultConfig(),
		RefreshInterval: 0,
		MemoLUTEntries:  2048,
	}
}

// Validate checks the configuration. Failures wrap rerr.ErrBadConfig
// (exported as rendelim.ErrBadConfig) for errors.Is matching.
func (c Config) Validate() error {
	if err := c.DRAM.Validate(); err != nil {
		return fmt.Errorf("gpusim: %w: %v", rerr.ErrBadConfig, err)
	}
	for _, cc := range []cache.Config{c.VertexCache, c.TextureCache, c.TileCache, c.L2Cache} {
		if err := cc.Validate(); err != nil {
			return fmt.Errorf("gpusim: %w: %v", rerr.ErrBadConfig, err)
		}
	}
	if c.MemoLUTEntries <= 0 {
		return fmt.Errorf("gpusim: %w: bad memo LUT size %d", rerr.ErrBadConfig, c.MemoLUTEntries)
	}
	if c.RefreshInterval < 0 {
		return fmt.Errorf("gpusim: %w: negative refresh interval", rerr.ErrBadConfig)
	}
	if c.Sig.OTQueueDepth <= 0 || c.Sig.AccumCyclesPerTile <= 0 {
		return fmt.Errorf("gpusim: %w: signature unit needs a positive OT queue depth and per-tile cycles, got %d and %d",
			rerr.ErrBadConfig, c.Sig.OTQueueDepth, c.Sig.AccumCyclesPerTile)
	}
	if _, ok := crc.SchemeByName(c.Sig.Scheme); !ok && c.Sig.Scheme != "" {
		return fmt.Errorf("gpusim: %w: unknown signature scheme %q", rerr.ErrBadConfig, c.Sig.Scheme)
	}
	return nil
}

// ModelFingerprint identifies the simulator's behaviour: it is the CRC32 of
// testdata/golden.json, which TestSuiteGolden requires. A change that moves
// any simulated number rewrites the golden and must move this constant with
// it, and since AppendSigned leads with it, every job key moves too: a
// result simulated by another model is never served as this one's.
const ModelFingerprint uint32 = 0x1e1973fc

// AppendSigned appends the canonical encoding of everything in c that can
// change a simulated result: ModelFingerprint, then every field not tagged
// json:"-", in declaration order. Job keys sign these bytes; the host-only
// fields (Tracer, TileWorkers) never change a result and are left out.
func (c *Config) AppendSigned(b []byte) []byte {
	b = wire.AppendU32(b, ModelFingerprint)
	b = wire.AppendU8(b, uint8(c.Technique))

	t := &c.Timing
	b = wire.AppendU64(b, math.Float64bits(t.FreqHz))
	for _, v := range [...]int{t.VertexProcessors, t.FragmentProcessors, t.TrianglesPerCycle,
		t.RasterAttrsPerCycle, t.QuadsPerCycle, t.BlendFragsPerCycle, t.VFetchBytesPerCycle,
		t.TileFetchBytesPerCycle, t.FlushBytesPerCycle} {
		b = wire.AppendI64(b, int64(v))
	}
	b = wire.AppendU64(b, math.Float64bits(t.GeomOverlap))
	b = wire.AppendU64(b, math.Float64bits(t.FragOverlap))

	d := &c.DRAM
	for _, v := range [...]int{d.Channels, d.BanksPerChannel, d.RowBytes, d.CASLat, d.RowCycleLat, d.QueueLat, d.BytesPerCycle} {
		b = wire.AppendI64(b, int64(v))
	}

	for _, cc := range [...]*cache.Config{&c.VertexCache, &c.TextureCache, &c.TileCache, &c.L2Cache} {
		b = wire.AppendString(b, cc.Name)
		for _, v := range [...]int{cc.LineBytes, cc.Ways, cc.SizeBytes, cc.Banks, cc.Latency} {
			b = wire.AppendI64(b, int64(v))
		}
	}

	b = wire.AppendI64(b, int64(c.Sig.OTQueueDepth))
	b = wire.AppendI64(b, int64(c.Sig.AccumCyclesPerTile))
	b = wire.AppendString(b, c.Sig.Scheme)

	b = wire.AppendI64(b, int64(c.RefreshInterval))
	b = wire.AppendBool(b, c.ExactBinning)
	return wire.AppendI64(b, int64(c.MemoLUTEntries))
}

// Simulated address map: disjoint regions so traffic classes never alias.
const (
	addrVertexBase   = 0x0000_0000
	addrVertexStride = 1 << 20 // per-drawcall vertex buffer region
	addrParamBase    = 0x4000_0000
	addrTexBase      = 0x8000_0000
	addrFBBase       = 0xC000_0000
)
