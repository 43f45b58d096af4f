package dram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"rendelim/internal/wire"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{},
		{Channels: 1, BanksPerChannel: 1, RowBytes: 0, BytesPerCycle: 1},
		{Channels: 1, BanksPerChannel: 1, RowBytes: 1024, BytesPerCycle: 1, CASLat: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestLatencyBandMatchesTableI(t *testing.T) {
	// Table I: main memory latency 50-100 cycles.
	d := New(Default())
	cold := d.Read(0, 64) // row miss
	if cold < 50 || cold > 120 {
		t.Fatalf("row-miss latency %d outside Table I band", cold)
	}
	warm := d.Read(64, 64) // same row
	if warm >= cold {
		t.Fatalf("row hit (%d) should be faster than row miss (%d)", warm, cold)
	}
	if warm < 50 {
		t.Fatalf("row-hit latency %d below Table I band", warm)
	}
}

func TestRowBufferTracking(t *testing.T) {
	d := New(Default())
	d.Read(0, 64)
	d.Read(128, 64)  // same 2 KB row
	d.Read(1024, 64) // still same row
	if d.Stats.RowMisses != 1 || d.Stats.RowHits != 2 {
		t.Fatalf("row stats: %+v", d.Stats)
	}
	d.Read(uint64(Default().RowBytes)*16, 64) // same channel? different row regardless
	if d.Stats.RowMisses < 2 {
		t.Fatalf("expected a second activation: %+v", d.Stats)
	}
}

func TestChannelInterleavingSpreadsRows(t *testing.T) {
	d := New(Default())
	// Consecutive rows land on alternating channels, so both get opened.
	d.Read(0, 64)
	d.Read(uint64(Default().RowBytes), 64)
	if d.Stats.RowMisses != 2 {
		t.Fatalf("adjacent rows should open banks on both channels: %+v", d.Stats)
	}
	// Returning to the first row must still hit: its bank kept the row open.
	d.Read(64, 64)
	if d.Stats.RowHits != 1 {
		t.Fatalf("row buffer lost across channels: %+v", d.Stats)
	}
}

func TestWriteReturnsZeroLatencyButCharges(t *testing.T) {
	d := New(Default())
	if lat := d.Write(0, 64); lat != 0 {
		t.Fatalf("buffered write latency = %d", lat)
	}
	if d.Stats.Writes != 1 || d.Stats.WriteBytes != 64 || d.Stats.BusBusyCycles == 0 {
		t.Fatalf("write accounting: %+v", d.Stats)
	}
}

func TestZeroSizeFree(t *testing.T) {
	d := New(Default())
	if d.Read(0, 0) != 0 || d.Stats.Reads != 0 {
		t.Fatal("zero-size access should be free")
	}
}

func TestBusBusyMatchesBytes(t *testing.T) {
	d := New(Default())
	d.Read(0, 64)
	d.Write(4096, 32)
	want := uint64(64/2 + 32/2) // per-channel 2 B/cycle
	if d.Stats.BusBusyCycles != want {
		t.Fatalf("bus busy = %d, want %d", d.Stats.BusBusyCycles, want)
	}
}

// Property: latency is always within [QueueLat+CAS, QueueLat+CAS+RowCycle] +
// burst time, and stats conserve (reads+writes counted once per access).
func TestQuickLatencyBounds(t *testing.T) {
	cfg := Default()
	d := New(cfg)
	var n uint64
	f := func(addr uint64, sz uint8) bool {
		size := int(sz%128) + 1
		lat := d.Read(addr%(1<<30), size)
		n++
		burst := (size + cfg.BytesPerCycle - 1) / cfg.BytesPerCycle
		lo := cfg.QueueLat + cfg.CASLat + burst
		hi := lo + cfg.RowCycleLat
		return lat >= lo && lat <= hi && d.Stats.Reads == n &&
			d.Stats.RowHits+d.Stats.RowMisses == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// A model's state round-trips through ReadState into a fresh model of the
// same geometry, and a bank count other than that geometry is latched as
// corruption.
func TestReadStateRejectsBadCount(t *testing.T) {
	d := New(Default())
	for addr := uint64(0); addr < 1<<20; addr += 4096 + 64 {
		d.Read(addr, 64)
	}
	blob := d.AppendState(nil)

	got := New(Default())
	r := wire.NewReader(blob)
	got.ReadState(r)
	if r.Err() != nil || r.Len() != 0 || !bytes.Equal(got.AppendState(nil), blob) {
		t.Fatalf("round trip: err %v, %d bytes left, state equal %v", r.Err(), r.Len(), bytes.Equal(got.AppendState(nil), blob))
	}

	banks := Default().Channels * Default().BanksPerChannel
	for _, n := range []uint32{1 << 30, uint32(banks - 1)} {
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(bad, n)
		r := wire.NewReader(bad)
		New(Default()).ReadState(r)
		if !errors.Is(r.Err(), wire.ErrCorrupt) {
			t.Errorf("bank count %d for %d banks: err %v, want wire.ErrCorrupt", n, banks, r.Err())
		}
	}
}
