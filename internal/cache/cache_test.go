package cache

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
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

// ReadRun(addr, size, n) leaves the cache, its counters and the next
// level exactly as n Access calls leave them, and returns the first call's
// latency; the others return the hit latency.
func TestReadRunMatchesRepeatedAccess(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rr, ra := &recorder{latRead: 30, latWrite: 5}, &recorder{latRead: 30, latWrite: 5}
	run, acc := small(rr), small(ra)
	for i := 0; i < 2000; i++ {
		addr := uint64(rng.Intn(1024)) * 2 // some reads straddle two lines
		size, n := 4, 1+rng.Intn(5)
		if addr%64+uint64(size) > 64 {
			n = 1 // a run of more than one read lies within one line
		}
		if rng.Intn(4) == 0 {
			acc.Access(addr, size, true)
			run.Access(addr, size, true)
			continue
		}
		got := run.ReadRun(addr, size, n)
		want := acc.Access(addr, size, false)
		for k := 1; k < n; k++ {
			if lat := acc.Access(addr, size, false); lat != acc.Config().Latency {
				t.Fatalf("read %d of a run: latency %d, want a hit", k, lat)
			}
		}
		if got != want {
			t.Fatalf("ReadRun(%#x, %d, %d) = %d, want %d", addr, size, n, got, want)
		}
	}
	if run.Stats != acc.Stats || *rr != *ra {
		t.Fatalf("ReadRun: stats %+v, next level %+v\nAccess: stats %+v, next level %+v", run.Stats, *rr, acc.Stats, *ra)
	}
	if !bytes.Equal(run.AppendState(nil), acc.AppendState(nil)) {
		t.Fatal("ReadRun left other lines, LRU stamps or clock than Access")
	}
}

func TestZeroSizeAccessIsFree(t *testing.T) {
	c := small(&recorder{})
	if c.Access(0, 0, false) != 0 || c.Stats.Accesses != 0 {
		t.Fatal("zero-size access should be a no-op")
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
		return r.readB%64 == 0 && r.writeB%64 == 0 &&
			uint64(r.readB) == c.Stats.ReadBytes && uint64(r.writeB) == c.Stats.WriteBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// A cache's state round-trips through ReadState into a fresh cache of the
// same geometry, and a line count other than that geometry is latched as
// corruption.
func TestReadStateRejectsBadCount(t *testing.T) {
	c := small(&recorder{})
	for addr := uint64(0); addr < 4096; addr += 96 {
		c.Access(addr, 4, addr%192 == 0)
	}
	blob := c.AppendState(nil)

	got := small(&recorder{})
	r := wire.NewReader(blob)
	got.ReadState(r)
	if r.Err() != nil || r.Len() != 0 || !bytes.Equal(got.AppendState(nil), blob) {
		t.Fatalf("round trip: err %v, %d bytes left, state equal %v", r.Err(), r.Len(), bytes.Equal(got.AppendState(nil), blob))
	}

	lines := c.Config().Sets() * c.Config().Ways
	for _, n := range []uint32{1 << 30, uint32(lines - 1)} {
		bad := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint32(bad, n)
		r := wire.NewReader(bad)
		small(&recorder{}).ReadState(r)
		if !errors.Is(r.Err(), wire.ErrCorrupt) {
			t.Errorf("line count %d for a %d-line cache: err %v, want wire.ErrCorrupt", n, lines, r.Err())
		}
	}
}
