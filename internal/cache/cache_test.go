package cache

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rendelim/internal/wire"
)

// recorder is a NextLevel that records traffic.
type recorder struct {
	reads, writes     int
	readB, writeB     int
	lastRead          uint64
	latRead, latWrite int
}

func (r *recorder) Read(addr uint64, size int) int {
	r.reads++
	r.readB += size
	r.lastRead = addr
	return r.latRead
}

func (r *recorder) Write(addr uint64, size int) int {
	r.writes++
	r.writeB += size
	return r.latWrite
}

func small(next NextLevel) *Cache {
	return New(Config{Name: "t", LineBytes: 64, Ways: 2, SizeBytes: 1024, Banks: 1, Latency: 1}, next)
}

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "ok", LineBytes: 64, Ways: 2, SizeBytes: 4096, Banks: 1, Latency: 1}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	if good.Sets() != 32 {
		t.Fatalf("sets = %d", good.Sets())
	}
	bad := []Config{
		{Name: "zero", LineBytes: 0, Ways: 1, SizeBytes: 64, Banks: 1},
		{Name: "indiv", LineBytes: 64, Ways: 3, SizeBytes: 1000, Banks: 1},
		{Name: "pow2", LineBytes: 64, Ways: 1, SizeBytes: 64 * 3, Banks: 1},
		{Name: "line", LineBytes: 48, Ways: 1, SizeBytes: 48 * 4, Banks: 1},
		{Name: "banks", LineBytes: 64, Ways: 2, SizeBytes: 1024, Banks: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("%s: expected error", c.Name)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	r := &recorder{latRead: 50}
	c := small(r)
	lat := c.Access(0x100, 4, false)
	if lat != 51 {
		t.Fatalf("miss latency = %d, want 51", lat)
	}
	if c.Stats.Misses != 1 || r.reads != 1 || r.readB != 64 {
		t.Fatalf("miss accounting: %+v next=%+v", c.Stats, r)
	}
	if r.lastRead != 0x100 { // line-aligned
		t.Fatalf("fill address = %#x", r.lastRead)
	}
	lat = c.Access(0x104, 4, false) // same line
	if lat != 1 || c.Stats.Hits != 1 {
		t.Fatalf("hit latency = %d stats=%+v", lat, c.Stats)
	}
}

func TestWriteAllocateAndWriteback(t *testing.T) {
	r := &recorder{}
	c := small(r) // 1024B, 64B lines, 2 ways -> 8 sets
	// Write to a line, then evict it with two more conflicting lines.
	c.Access(0x0000, 4, true)
	c.Access(0x0200, 4, false) // same set (set stride = 8*64 = 512)
	c.Access(0x0400, 4, false) // evicts the dirty line at 0x0000
	if c.Stats.Writebacks != 1 || r.writes != 1 || r.writeB != 64 {
		t.Fatalf("writeback accounting: %+v next=%+v", c.Stats, r)
	}
	// The written-back line must come back dirty-free: re-reading misses.
	c.Access(0x0000, 4, false)
	if c.Stats.Misses != 4 {
		t.Fatalf("misses = %d, want 4", c.Stats.Misses)
	}
}

func TestLRUReplacement(t *testing.T) {
	r := &recorder{}
	c := small(r)
	c.Access(0x0000, 4, false) // way A
	c.Access(0x0200, 4, false) // way B
	c.Access(0x0000, 4, false) // touch A -> B is LRU
	c.Access(0x0400, 4, false) // evicts B
	c.Access(0x0000, 4, false) // still a hit if A survived
	if c.Stats.Hits != 2 {
		t.Fatalf("hits = %d, want 2 (LRU broken)", c.Stats.Hits)
	}
}

func TestStraddlingAccessSplits(t *testing.T) {
	r := &recorder{}
	c := small(r)
	c.Access(60, 8, false) // crosses the 64B boundary
	if c.Stats.Accesses != 2 || c.Stats.Misses != 2 {
		t.Fatalf("straddle stats: %+v", c.Stats)
	}
}

func TestZeroSizeAccessIsFree(t *testing.T) {
	c := small(&recorder{})
	if c.Access(0, 0, false) != 0 || c.Stats.Accesses != 0 {
		t.Fatal("zero-size access should be a no-op")
	}
}

func TestFlushWritesBackDirtyLines(t *testing.T) {
	r := &recorder{}
	c := small(r)
	c.Access(0x000, 4, true)
	c.Access(0x040, 4, true)
	c.Access(0x080, 4, false)
	if wb := c.Flush(); wb != 2 {
		t.Fatalf("flush wrote back %d lines, want 2", wb)
	}
	if r.writeB != 128 {
		t.Fatalf("flush bytes = %d", r.writeB)
	}
	// After flush everything misses again.
	c.Access(0x000, 4, false)
	if c.Stats.Hits != 0 {
		t.Fatal("flush did not invalidate")
	}
}

func TestWritebackAddressRoundTrips(t *testing.T) {
	r := &recorder{}
	c := small(r)
	addr := uint64(0x12340)
	c.Access(addr, 4, true)
	// Evict by filling the set.
	c.Access(addr+0x200, 4, false)
	c.Access(addr+0x400, 4, false)
	if r.writes != 1 {
		t.Fatalf("expected 1 writeback, got %d", r.writes)
	}
}

func TestCacheStacking(t *testing.T) {
	dram := &recorder{latRead: 80}
	l2 := New(Config{Name: "l2", LineBytes: 64, Ways: 8, SizeBytes: 8192, Banks: 8, Latency: 2}, dram)
	l1 := New(Config{Name: "l1", LineBytes: 64, Ways: 2, SizeBytes: 1024, Banks: 1, Latency: 1}, l2)
	lat := l1.Access(0x1000, 4, false)
	if lat != 1+2+80 {
		t.Fatalf("cold stacked latency = %d, want 83", lat)
	}
	// L1 eviction that still hits L2 costs only L1+L2.
	for i := uint64(0); i < 3; i++ {
		l1.Access(0x1000+i*0x200, 4, false)
	}
	lat = l1.Access(0x1000, 4, false)
	if lat != 1+2 {
		t.Fatalf("L2-hit latency = %d, want 3", lat)
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Fatal("idle hit rate should be 0")
	}
	s = Stats{Accesses: 4, Hits: 3}
	if s.HitRate() != 0.75 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Accesses: 1, Hits: 2, Misses: 3, Writebacks: 4, ReadBytes: 5, WriteBytes: 6}
	a.Add(a)
	if a != (Stats{Accesses: 2, Hits: 4, Misses: 6, Writebacks: 8, ReadBytes: 10, WriteBytes: 12}) {
		t.Fatalf("Add = %+v", a)
	}
}

// Property: hits + misses == accesses, and a second identical access stream
// on a warmed cache can only raise the hit rate.
func TestQuickConservationAndWarmth(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := small(&recorder{})
		addrs := make([]uint64, int(n)+1)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(4096))
		}
		for _, a := range addrs {
			c.Access(a, 1, rng.Intn(2) == 0)
		}
		if c.Stats.Hits+c.Stats.Misses != c.Stats.Accesses {
			return false
		}
		cold := c.Stats
		for _, a := range addrs {
			c.Access(a, 1, false)
		}
		warmHits := c.Stats.Hits - cold.Hits
		return warmHits >= cold.Hits
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: traffic to the next level is always whole cache lines.
func TestQuickLineGranularityTraffic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := &recorder{}
		c := small(r)
		for i := 0; i < 200; i++ {
			c.Access(uint64(rng.Intn(1<<16)), 1+rng.Intn(16), rng.Intn(2) == 0)
		}
		c.Flush()
		return r.readB%64 == 0 && r.writeB%64 == 0 &&
			uint64(r.readB) == c.Stats.ReadBytes && uint64(r.writeB) == c.Stats.WriteBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := small(&recorder{})
	c.Access(0x100, 4, false)
	c.ResetStats()
	c.Access(0x100, 4, false)
	if c.Stats.Hits != 1 || c.Stats.Accesses != 1 {
		t.Fatalf("stats after reset: %+v", c.Stats)
	}
}

// A snapshot round-trips through its wire form, and a line count the input
// cannot hold is latched as corruption instead of decoding to no lines.
func TestDecodeSnapshotRejectsBadCount(t *testing.T) {
	c := small(&recorder{})
	for addr := uint64(0); addr < 4096; addr += 96 {
		c.Access(addr, 4, addr%192 == 0)
	}
	want := c.Snapshot()
	blob := want.AppendBinary(nil)

	r := wire.NewReader(blob)
	if got := DecodeSnapshot(r); r.Err() != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: err %v, equal %v", r.Err(), reflect.DeepEqual(got, want))
	}

	bad := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(bad, 1<<30)
	r = wire.NewReader(bad)
	if got := DecodeSnapshot(r); !errors.Is(r.Err(), wire.ErrCorrupt) || len(got.Lines) != 0 {
		t.Fatalf("line count 2^30 decoded to %d lines with err %v, want wire.ErrCorrupt", len(got.Lines), r.Err())
	}
}
