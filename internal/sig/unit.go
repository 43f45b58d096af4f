package sig

import (
	"fmt"

	"rendelim/internal/crc"
)

// Config parameterizes the Signature Unit hardware.
type Config struct {
	// OTQueueDepth is the capacity of the Overlapped-Tiles queue in tile
	// entries (ids pushed by the Polygon List Builder).
	OTQueueDepth int
	// AccumCyclesPerTile is the pipelined per-tile cost of the
	// accumulate-combine step (Signature Buffer read, shift-combine,
	// write back). The Shift subunit is a 1-cycle combinational LUT
	// stage, and distinct tiles are independent, so an interleaved
	// pipeline sustains one tile every couple of cycles regardless of
	// the shift amount (Section III-G discusses the latency/storage
	// trade-off).
	AccumCyclesPerTile int
	// Scheme names the signature function (crc.Scheme.Name): "crc32" in
	// the paper; the hash ablation swaps it. Empty selects CRC32.
	Scheme string
}

// DefaultConfig returns the paper's configuration: a 16-entry OT queue
// (matching the Table I queue depths) and the CRC32 scheme.
func DefaultConfig() Config {
	return Config{OTQueueDepth: 16, AccumCyclesPerTile: 1, Scheme: crc.CRC32Scheme{}.Name()}
}

// Stats aggregates the Signature Unit's activity for timing and energy. The
// CRC datapath's own counters are read with Unit.CRCStats.
type Stats struct {
	// StallCycles is geometry-pipeline back-pressure from OT queue
	// overflow (the only execution-time overhead RE adds; ~0.64% in the
	// paper).
	StallCycles uint64
	// BusyCycles is total SU occupancy (overlapped with other geometry
	// stages unless the queue fills).
	BusyCycles   uint64
	BitmapReads  uint64
	BitmapWrites uint64
	PrimBlocks   uint64
	ConstBlocks  uint64
	TileUpdates  uint64
}

// Unit is the Signature Unit of Figure 7. During the geometry phase the
// Polygon List Builder feeds it primitive attribute blocks with the list of
// overlapped tiles, and the Command Processor feeds it constants blocks; it
// incrementally maintains one signature per tile in the Signature Buffer.
type Unit struct {
	cfg    Config
	scheme crc.Scheme // cfg.Scheme, resolved once
	buf    *Buffer

	compute    crc.ComputeUnit
	accumulate crc.AccumulateUnit

	// Constants CRC register + shift amount (Figure 7) and the per-tile
	// "constants already combined" bitmap.
	constSig   uint32
	constShift int
	haveConst  bool
	bitmap     []bool

	// Two-clock queue model: plbClock is the producer (binning) time,
	// suClock the consumer time, both in geometry-pipeline cycles.
	plbClock uint64
	suClock  uint64

	Stats Stats
}

// NewUnit builds a Signature Unit over the given buffer. It panics on an
// unknown scheme name; callers validate configs first (gpusim.Config.Validate
// rejects one).
func NewUnit(cfg Config, buf *Buffer) *Unit {
	if cfg.OTQueueDepth <= 0 {
		cfg.OTQueueDepth = 16
	}
	if cfg.AccumCyclesPerTile <= 0 {
		cfg.AccumCyclesPerTile = 2
	}
	scheme := crc.Scheme(crc.CRC32Scheme{})
	if cfg.Scheme != "" {
		var ok bool
		if scheme, ok = crc.SchemeByName(cfg.Scheme); !ok {
			panic(fmt.Sprintf("sig: unknown signature scheme %q", cfg.Scheme))
		}
	}
	return &Unit{cfg: cfg, scheme: scheme, buf: buf, bitmap: make([]bool, buf.NumTiles())}
}

// Buffer returns the unit's Signature Buffer.
func (u *Unit) Buffer() *Buffer { return u.buf }

// BeginFrame resets per-frame state (signatures under construction, the
// constants register and bitmap, and the queue clocks).
func (u *Unit) BeginFrame() {
	u.buf.BeginFrame()
	u.haveConst = false
	u.clearBitmap()
	u.plbClock = 0
	u.suClock = 0
}

func (u *Unit) clearBitmap() {
	for i := range u.bitmap {
		u.bitmap[i] = false
	}
	u.Stats.BitmapWrites += uint64(len(u.bitmap))
}

// signBlock signs one block through the Compute CRC unit (or the ablation
// scheme), charging the hardware cost either way.
func (u *Unit) signBlock(block []byte) (sigVal uint32, shift int, cycles uint64) {
	if _, isCRC := u.scheme.(crc.CRC32Scheme); isCRC {
		sigVal, shift = u.compute.Sign(block)
	} else {
		sigVal, shift = u.scheme.SignBlock(block)
		// Charge the same datapath cost so the ablation isolates hash
		// quality from hash cost.
		padded := crc.PaddedLen(len(block)) / crc.SubblockBytes
		u.compute.Stats.Cycles += uint64(padded)
		u.compute.Stats.LUTAccesses += uint64(padded) * 12
		u.compute.Stats.Subblocks += uint64(padded)
	}
	return sigVal, shift, uint64(crc.PaddedLen(len(block)) / crc.SubblockBytes)
}

// SetConstants signs a new constants block (Command Processor path): the
// Constants CRC register is loaded and the bitmap cleared, so each tile
// combines the new constants exactly once (Section III-F).
func (u *Unit) SetConstants(block []byte) {
	if len(block) == 0 {
		return
	}
	var cycles uint64
	u.constSig, u.constShift, cycles = u.signBlock(block)
	u.haveConst = true
	u.clearBitmap()
	u.Stats.ConstBlocks++
	u.Stats.BusyCycles += cycles
	// Constants signing overlaps the Command Processor's own work of
	// decoding and applying the state update — it does not go through the
	// OT queue — so the producer clock advances in step and only makes the
	// SU unavailable for concurrently arriving primitives.
	u.suClock += cycles
	u.plbClock += cycles
}

// AddPrimitive signs a primitive's vertex-attribute block and folds it into
// the signature of every overlapped tile, combining the pending constants
// block first for tiles that have not seen it (Figure 7 / Section III-F).
//
// producerCycles is the geometry front-end's cost of delivering this
// primitive (vertex fetch + shading + assembly + binning): the interval at
// which the PLB can actually push OT-queue entries. Signing overlaps that
// work, so only OT-queue overflow back-pressures the pipeline and shows up
// as StallCycles (Section V measures 0.64% on average).
func (u *Unit) AddPrimitive(block []byte, tiles []int, producerCycles uint64) {
	primSig, primShift, computeCycles := u.signBlock(block)
	u.Stats.PrimBlocks++

	// Producer: the PLB emits one tile id per cycle while binning, and no
	// faster than the upstream pipeline produces primitives.
	prodStart := u.plbClock
	adv := uint64(len(tiles)) + 1
	if producerCycles > adv {
		adv = producerCycles
	}
	u.plbClock += adv

	// Consumer: prim signing must finish before tile updates drain.
	if u.suClock < prodStart {
		u.suClock = prodStart
	}
	u.suClock += computeCycles
	u.Stats.BusyCycles += computeCycles

	for _, tile := range tiles {
		cur := u.buf.Load(tile)

		u.Stats.BitmapReads++
		if u.haveConst && !u.bitmap[tile] {
			// Combine the constants block first, then the primitive. The
			// two XOR-combines chain within the same Signature Buffer
			// read-modify-write, so the pipelined per-tile cost does not
			// grow (only the LUT activity does).
			cur = u.accumulateCombine(cur, u.constSig, u.constShift)
			u.bitmap[tile] = true
			u.Stats.BitmapWrites++
		}
		cur = u.accumulateCombine(cur, primSig, primShift)
		u.buf.Store(tile, cur)
		u.Stats.TileUpdates++

		perTile := uint64(u.cfg.AccumCyclesPerTile)
		u.suClock += perTile
		u.Stats.BusyCycles += perTile
	}

	// OT-queue occupancy: if the consumer lags the producer by more than
	// the queue capacity (in per-tile entries), the producer stalls until
	// space frees up.
	if u.suClock > u.plbClock {
		lagEntries := (u.suClock - u.plbClock) / uint64(u.cfg.AccumCyclesPerTile)
		if lagEntries > uint64(u.cfg.OTQueueDepth) {
			stall := (lagEntries - uint64(u.cfg.OTQueueDepth)) * uint64(u.cfg.AccumCyclesPerTile)
			u.plbClock += stall
			u.Stats.StallCycles += stall
		}
	}
}

// accumulateCombine folds blockSig (of shiftAmount subblocks) into acc via
// the Accumulate CRC unit (Algorithm 3) for the CRC scheme, or the ablation
// scheme's combiner otherwise; hardware activity is charged identically.
func (u *Unit) accumulateCombine(acc, blockSig uint32, shiftAmount int) uint32 {
	if _, isCRC := u.scheme.(crc.CRC32Scheme); isCRC {
		return u.accumulate.Shift(acc, shiftAmount) ^ blockSig
	}
	u.accumulate.Stats.Cycles += uint64(shiftAmount)
	u.accumulate.Stats.LUTAccesses += 4 * uint64(shiftAmount)
	u.accumulate.Stats.Subblocks += uint64(shiftAmount)
	return u.scheme.Accumulate(acc, blockSig, shiftAmount)
}

// CheckTile performs the raster-time comparison for a tile: a Signature
// Buffer read pair and a 32-bit compare, whose cycles the simulator's
// raster scheduler charges. It returns whether the Raster Pipeline can be
// bypassed.
func (u *Unit) CheckTile(tile int) (redundant bool) {
	match, ok := u.buf.Match(tile)
	return ok && match
}

// EndFrame commits the frame's signatures (see Buffer.EndFrame); stats
// accumulate across frames, and the simulator reads their differences.
func (u *Unit) EndFrame() { u.buf.EndFrame() }

// CRCStats returns the cumulative counters of the Compute CRC and Accumulate
// CRC units.
func (u *Unit) CRCStats() (compute, accumulate crc.UnitStats) {
	return u.compute.Stats, u.accumulate.Stats
}
