package dram

import (
	"encoding/binary"
	"errors"
	"reflect"
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
	d.Read(uint64(d.Config().RowBytes)*16, 64) // same channel? different row regardless
	if d.Stats.RowMisses < 2 {
		t.Fatalf("expected a second activation: %+v", d.Stats)
	}
}

func TestChannelInterleavingSpreadsRows(t *testing.T) {
	d := New(Default())
	// Consecutive rows land on alternating channels, so both get opened.
	d.Read(0, 64)
	d.Read(uint64(d.Config().RowBytes), 64)
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

func TestMinTransferCycles(t *testing.T) {
	d := New(Default()) // aggregate 4 B/cycle
	cases := map[uint64]uint64{0: 0, 1: 1, 4: 1, 5: 2, 4096: 1024}
	for n, want := range cases {
		if got := d.MinTransferCycles(n); got != want {
			t.Fatalf("MinTransferCycles(%d) = %d, want %d", n, got, want)
		}
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

func TestStatsAddAndTotal(t *testing.T) {
	a := Stats{Reads: 1, Writes: 2, ReadBytes: 3, WriteBytes: 4, RowHits: 5, RowMisses: 6, BusBusyCycles: 7}
	a.Add(a)
	if a.TotalBytes() != 14 {
		t.Fatalf("total = %d", a.TotalBytes())
	}
	if a.Reads != 2 || a.BusBusyCycles != 14 {
		t.Fatalf("add = %+v", a)
	}
}

func TestResetStats(t *testing.T) {
	d := New(Default())
	d.Read(0, 64)
	d.ResetStats()
	if d.Stats != (Stats{}) {
		t.Fatal("stats not reset")
	}
	// Row buffer survives reset.
	d.Read(64, 64)
	if d.Stats.RowHits != 1 {
		t.Fatal("row state should survive ResetStats")
	}
}

// A snapshot round-trips through its wire form, and a bank count the input
// cannot hold is latched as corruption instead of decoding to no banks.
func TestDecodeSnapshotRejectsBadCount(t *testing.T) {
	d := New(Default())
	for addr := uint64(0); addr < 1<<20; addr += 4096 + 64 {
		d.Read(addr, 64)
	}
	want := d.Snapshot()
	blob := want.AppendBinary(nil)

	r := wire.NewReader(blob)
	if got := DecodeSnapshot(r); r.Err() != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: err %v, equal %v", r.Err(), reflect.DeepEqual(got, want))
	}

	bad := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(bad, 1<<30)
	r = wire.NewReader(bad)
	if got := DecodeSnapshot(r); !errors.Is(r.Err(), wire.ErrCorrupt) || len(got.Banks) != 0 {
		t.Fatalf("bank count 2^30 decoded to %d banks with err %v, want wire.ErrCorrupt", len(got.Banks), r.Err())
	}
}
