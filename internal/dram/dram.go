// Package dram models the main-memory system of Table I: a dual-channel
// LPDDR3 with per-bank row buffers and an open-page policy, in the spirit of
// DRAMSim2 (paper [27]) but reduced to what the evaluation needs — a
// latency in the 50–100 cycle band that depends on row locality, a hard
// aggregate bandwidth of 4 bytes per GPU cycle, and per-access energy with
// the row-activate asymmetry that dominates DRAM power.
package dram

import (
	"fmt"

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

// access serves one request and returns its latency in GPU cycles.
func (d *DRAM) access(addr uint64, size int, write bool) int {
	if size <= 0 {
		return 0
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

// AppendState appends the open-row state of every bank, channel by
// channel, for simulator checkpoints: a model read back from it reproduces
// the same row hit/miss (and therefore latency) sequence as the original.
// The simulator reads Stats only as in-frame differences.
func (d *DRAM) AppendState(b []byte) []byte {
	b = wire.AppendU32(b, uint32(d.cfg.Channels*d.cfg.BanksPerChannel))
	for _, ch := range d.banks {
		for _, bk := range ch {
			b = wire.AppendU64(b, bk.openRow)
			b = wire.AppendBool(b, bk.valid)
		}
	}
	return b
}

// ReadState reads what AppendState wrote into the model's own banks; a bank
// count other than the configured geometry latches wire.ErrCorrupt on r.
func (d *DRAM) ReadState(r *wire.Reader) {
	r.Length(d.cfg.Channels * d.cfg.BanksPerChannel)
	for _, ch := range d.banks {
		for i := range ch {
			ch[i] = bank{openRow: r.U64(), valid: r.Bool()}
		}
	}
}
