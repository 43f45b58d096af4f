// Package dram models the main-memory system of Table I: a dual-channel
// LPDDR3 with per-bank row buffers and an open-page policy, in the spirit of
// DRAMSim2 (paper [27]) but reduced to what the evaluation needs — a
// latency in the 50–100 cycle band that depends on row locality, a hard
// aggregate bandwidth of 4 bytes per GPU cycle, and per-access energy with
// the row-activate asymmetry that dominates DRAM power.
package dram

import (
	"fmt"

	"rendelim/internal/fault"
	"rendelim/internal/wire"
)

// Config describes the memory system.
type Config struct {
	Channels        int
	BanksPerChannel int
	RowBytes        int
	// Latencies in GPU cycles.
	CASLat      int // column access on an open row
	RowCycleLat int // precharge + activate added on a row miss
	QueueLat    int // fixed controller/queue traversal
	// BytesPerCycle is the per-channel burst bandwidth. Two channels at
	// 2 B/cycle give the aggregate 4 B/cycle of Table I.
	BytesPerCycle int
}

// Default returns the Table I memory system.
func Default() Config {
	return Config{
		Channels:        2,
		BanksPerChannel: 8,
		RowBytes:        2048,
		CASLat:          14,
		RowCycleLat:     36,
		QueueLat:        36,
		BytesPerCycle:   2,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Channels <= 0 || c.BanksPerChannel <= 0 || c.RowBytes <= 0 || c.BytesPerCycle <= 0 {
		return fmt.Errorf("dram: non-positive geometry %+v", c)
	}
	if c.CASLat < 0 || c.RowCycleLat < 0 || c.QueueLat < 0 {
		return fmt.Errorf("dram: negative latency %+v", c)
	}
	return nil
}

// Stats counts DRAM activity for the bandwidth and energy models.
type Stats struct {
	Reads         uint64
	Writes        uint64
	ReadBytes     uint64
	WriteBytes    uint64
	RowHits       uint64
	RowMisses     uint64 // row activations
	BusBusyCycles uint64 // channel-cycles spent bursting
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Reads += o.Reads
	s.Writes += o.Writes
	s.ReadBytes += o.ReadBytes
	s.WriteBytes += o.WriteBytes
	s.RowHits += o.RowHits
	s.RowMisses += o.RowMisses
	s.BusBusyCycles += o.BusBusyCycles
}

// TotalBytes returns the total traffic.
func (s Stats) TotalBytes() uint64 { return s.ReadBytes + s.WriteBytes }

type bank struct {
	openRow uint64
	valid   bool
}

// DRAM is the memory model. It implements cache.NextLevel so caches can use
// it directly as their backing store.
type DRAM struct {
	cfg   Config
	banks [][]bank
	Stats Stats

	// Fault, when non-nil, injects faults on every access (sites
	// fault.SiteDRAMRead / SiteDRAMWrite). Transient and Panic kinds both
	// panic with the fault error — the cache.NextLevel interface has no
	// error channel, so an injected fault models an uncorrectable memory
	// fault and surfaces through the job pool's panic isolation. Latency
	// kinds sleep host time only and never change simulated results.
	Fault *fault.Plan
}

// New builds the DRAM model; it panics on invalid configuration.
func New(cfg Config) *DRAM {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	banks := make([][]bank, cfg.Channels)
	for i := range banks {
		banks[i] = make([]bank, cfg.BanksPerChannel)
	}
	return &DRAM{cfg: cfg, banks: banks}
}

// Config returns the model's configuration.
func (d *DRAM) Config() Config { return d.cfg }

// access serves one request and returns its latency in GPU cycles.
func (d *DRAM) access(addr uint64, size int, write bool) int {
	if size <= 0 {
		return 0
	}
	if d.Fault != nil {
		site := fault.SiteDRAMRead
		if write {
			site = fault.SiteDRAMWrite
		}
		if err := d.Fault.Check(site); err != nil {
			panic(err)
		}
	}
	// Address mapping: channel-interleaved at row granularity so that
	// streaming fills spread across channels, then bank, then row.
	row := addr / uint64(d.cfg.RowBytes)
	ch := int(row % uint64(d.cfg.Channels))
	bk := int((row / uint64(d.cfg.Channels)) % uint64(d.cfg.BanksPerChannel))
	b := &d.banks[ch][bk]

	lat := d.cfg.QueueLat + d.cfg.CASLat
	if b.valid && b.openRow == row {
		d.Stats.RowHits++
	} else {
		d.Stats.RowMisses++
		lat += d.cfg.RowCycleLat
		b.openRow = row
		b.valid = true
	}
	burst := (size + d.cfg.BytesPerCycle - 1) / d.cfg.BytesPerCycle
	lat += burst
	d.Stats.BusBusyCycles += uint64(burst)

	if write {
		d.Stats.Writes++
		d.Stats.WriteBytes += uint64(size)
	} else {
		d.Stats.Reads++
		d.Stats.ReadBytes += uint64(size)
	}
	return lat
}

// Read implements cache.NextLevel.
func (d *DRAM) Read(addr uint64, size int) int { return d.access(addr, size, false) }

// Write implements cache.NextLevel. Writes are buffered by the controller;
// the caller sees only the queue traversal, but bandwidth and energy are
// charged in full.
func (d *DRAM) Write(addr uint64, size int) int {
	d.access(addr, size, true)
	return 0
}

// MinTransferCycles returns the minimum number of GPU cycles needed to move
// n bytes given the aggregate bandwidth — the bandwidth wall the timing
// model enforces on each pipeline phase.
func (d *DRAM) MinTransferCycles(n uint64) uint64 {
	agg := uint64(d.cfg.Channels * d.cfg.BytesPerCycle)
	return (n + agg - 1) / agg
}

// ResetStats zeroes the counters while keeping row-buffer state.
func (d *DRAM) ResetStats() { d.Stats = Stats{} }

// Snapshot captures the open-row state of every bank plus the counters, so
// a restored model reproduces the same row hit/miss (and therefore latency)
// sequence as the original.
type Snapshot struct {
	Banks []bank // flattened channels, BanksPerChannel entries per channel
	Stats Stats
}

// Snapshot copies the model's state.
func (d *DRAM) Snapshot() Snapshot {
	banks := make([]bank, 0, d.cfg.Channels*d.cfg.BanksPerChannel)
	for _, ch := range d.banks {
		banks = append(banks, ch...)
	}
	return Snapshot{Banks: banks, Stats: d.Stats}
}

// Restore overwrites the model's state with a snapshot from an identically
// configured model; it panics on a geometry mismatch.
func (d *DRAM) Restore(s Snapshot) {
	if len(s.Banks) != d.cfg.Channels*d.cfg.BanksPerChannel {
		panic(fmt.Sprintf("dram: restore geometry mismatch: %d banks != %d", len(s.Banks), d.cfg.Channels*d.cfg.BanksPerChannel))
	}
	for i, ch := range d.banks {
		copy(ch, s.Banks[i*d.cfg.BanksPerChannel:(i+1)*d.cfg.BanksPerChannel])
	}
	d.Stats = s.Stats
}

// AppendBinary serializes the snapshot in the durability layer's wire
// format: bank open-row state followed by the counters.
func (s Snapshot) AppendBinary(b []byte) []byte {
	b = wire.AppendU32(b, uint32(len(s.Banks)))
	for _, bk := range s.Banks {
		b = wire.AppendU64(b, bk.openRow)
		b = wire.AppendBool(b, bk.valid)
	}
	b = wire.AppendU64(b, s.Stats.Reads)
	b = wire.AppendU64(b, s.Stats.Writes)
	b = wire.AppendU64(b, s.Stats.ReadBytes)
	b = wire.AppendU64(b, s.Stats.WriteBytes)
	b = wire.AppendU64(b, s.Stats.RowHits)
	b = wire.AppendU64(b, s.Stats.RowMisses)
	b = wire.AppendU64(b, s.Stats.BusBusyCycles)
	return b
}

// DecodeSnapshot is the inverse of AppendBinary; errors are latched on r.
func DecodeSnapshot(r *wire.Reader) Snapshot {
	var s Snapshot
	s.Banks = make([]bank, r.Count(int(r.U32()), 9))
	for i := range s.Banks {
		s.Banks[i].openRow = r.U64()
		s.Banks[i].valid = r.Bool()
	}
	s.Stats.Reads = r.U64()
	s.Stats.Writes = r.U64()
	s.Stats.ReadBytes = r.U64()
	s.Stats.WriteBytes = r.U64()
	s.Stats.RowHits = r.U64()
	s.Stats.RowMisses = r.U64()
	s.Stats.BusBusyCycles = r.U64()
	return s
}
