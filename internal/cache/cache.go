// Package cache models the set-associative on-chip caches of Table I
// (vertex, texture, tile, L2, and the direct-mapped color/depth buffers).
// Caches are functional only in the address domain: they track tags, LRU
// state and dirtiness to produce hit/miss/writeback streams for the DRAM and
// energy models; data contents live in the functional renderer.
package cache

import (
	"fmt"
	"math/bits"

	"rendelim/internal/wire"
)

// Config describes one cache per the Table I format.
type Config struct {
	Name      string
	LineBytes int
	Ways      int
	SizeBytes int
	Banks     int
	Latency   int // access latency in cycles
}

// Sets returns the number of sets implied by the geometry.
func (c Config) Sets() int { return c.SizeBytes / (c.LineBytes * c.Ways) }

// Validate checks that the geometry is well-formed and power-of-two indexed.
func (c Config) Validate() error {
	if c.LineBytes <= 0 || c.Ways <= 0 || c.SizeBytes <= 0 {
		return fmt.Errorf("cache %s: non-positive geometry %+v", c.Name, c)
	}
	if c.SizeBytes%(c.LineBytes*c.Ways) != 0 {
		return fmt.Errorf("cache %s: size %d not divisible by line*ways", c.Name, c.SizeBytes)
	}
	s := c.Sets()
	if s&(s-1) != 0 {
		return fmt.Errorf("cache %s: sets %d not a power of two", c.Name, s)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %s: line size %d not a power of two", c.Name, c.LineBytes)
	}
	if c.Banks <= 0 {
		return fmt.Errorf("cache %s: banks must be positive", c.Name)
	}
	return nil
}

// Stats counts cache activity.
type Stats struct {
	Accesses   uint64
	Hits       uint64
	Misses     uint64
	Writebacks uint64 // dirty lines evicted
	ReadBytes  uint64 // bytes fetched from the next level
	WriteBytes uint64 // bytes written back to the next level
}

// HitRate returns hits/accesses, or 0 for an idle cache.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Accesses += o.Accesses
	s.Hits += o.Hits
	s.Misses += o.Misses
	s.Writebacks += o.Writebacks
	s.ReadBytes += o.ReadBytes
	s.WriteBytes += o.WriteBytes
}

// NextLevel receives the miss/writeback traffic of a cache: either another
// cache or the DRAM model.
type NextLevel interface {
	// Read fetches size bytes at addr; returns the added latency in cycles.
	Read(addr uint64, size int) int
	// Write sends size bytes at addr down the hierarchy; returns added
	// latency in cycles (write buffers usually hide it).
	Write(addr uint64, size int) int
}

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint32 // lower = older
}

// Cache is a set-associative write-back, write-allocate cache with true-LRU
// replacement.
type Cache struct {
	cfg      Config
	next     NextLevel
	sets     [][]line
	setShift uint
	setMask  uint64
	lruTick  uint32
	Stats    Stats
}

// New builds a cache; it panics on invalid geometry (a configuration bug,
// not a runtime condition).
func New(cfg Config, next NextLevel) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := make([][]line, cfg.Sets())
	backing := make([]line, cfg.Sets()*cfg.Ways)
	for i := range sets {
		sets[i], backing = backing[:cfg.Ways], backing[cfg.Ways:]
	}
	return &Cache{
		cfg:      cfg,
		next:     next,
		sets:     sets,
		setShift: uint(bits.TrailingZeros(uint(cfg.LineBytes))),
		setMask:  uint64(cfg.Sets() - 1),
	}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Access performs one read or write of up to a line at addr. It returns the
// total latency in cycles (cache latency plus any next-level fill time).
// Accesses that straddle a line boundary are split.
func (c *Cache) Access(addr uint64, size int, write bool) int {
	if size <= 0 {
		return 0
	}
	total := 0
	for size > 0 {
		lineOff := int(addr) & (c.cfg.LineBytes - 1)
		chunk := c.cfg.LineBytes - lineOff
		if chunk > size {
			chunk = size
		}
		total += c.accessLine(addr, write)
		addr += uint64(chunk)
		size -= chunk
	}
	return total
}

func (c *Cache) accessLine(addr uint64, write bool) int {
	c.Stats.Accesses++
	lineAddr := addr >> c.setShift
	set := c.sets[lineAddr&c.setMask]
	tag := lineAddr >> uint(bits.TrailingZeros(uint(c.cfg.Sets())))

	c.lruTick++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.Stats.Hits++
			set[i].lru = c.lruTick
			if write {
				set[i].dirty = true
			}
			return c.cfg.Latency
		}
	}
	// Miss: pick the LRU victim.
	c.Stats.Misses++
	victim := 0
	for i := 1; i < len(set); i++ {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	lat := c.cfg.Latency
	if set[victim].valid && set[victim].dirty {
		c.Stats.Writebacks++
		c.Stats.WriteBytes += uint64(c.cfg.LineBytes)
		victimAddr := c.lineBase(set[victim].tag, lineAddr&c.setMask)
		lat += c.next.Write(victimAddr, c.cfg.LineBytes)
	}
	c.Stats.ReadBytes += uint64(c.cfg.LineBytes)
	lat += c.next.Read(addr&^uint64(c.cfg.LineBytes-1), c.cfg.LineBytes)
	set[victim] = line{tag: tag, valid: true, dirty: write, lru: c.lruTick}
	return lat
}

func (c *Cache) lineBase(tag, setIdx uint64) uint64 {
	return (tag<<uint(bits.TrailingZeros(uint(c.cfg.Sets())))|setIdx)<<c.setShift | 0
}

// Read is a NextLevel adapter so caches can stack (e.g. tile cache -> L2).
func (c *Cache) Read(addr uint64, size int) int { return c.Access(addr, size, false) }

// Write is the NextLevel write adapter.
func (c *Cache) Write(addr uint64, size int) int { return c.Access(addr, size, true) }

// Flush writes back every dirty line and invalidates the cache, returning
// the number of lines written back. Used between frames when required.
func (c *Cache) Flush() int {
	wb := 0
	for si := range c.sets {
		for wi := range c.sets[si] {
			l := &c.sets[si][wi]
			if l.valid && l.dirty {
				wb++
				c.Stats.Writebacks++
				c.Stats.WriteBytes += uint64(c.cfg.LineBytes)
				c.next.Write(c.lineBase(l.tag, uint64(si)), c.cfg.LineBytes)
			}
			*l = line{}
		}
	}
	return wb
}

// ResetStats zeroes the counters while keeping cache contents.
func (c *Cache) ResetStats() { c.Stats = Stats{} }

// Snapshot captures the cache's full replacement state — every line's tag,
// validity, dirtiness and LRU stamp, plus the LRU clock and counters — so a
// restored cache produces the same hit/miss/writeback stream (and therefore
// the same simulated timing) as the original.
type Snapshot struct {
	Lines   []line // flattened sets, cfg.Ways entries per set
	LRUTick uint32
	Stats   Stats
}

// Snapshot copies the cache state.
func (c *Cache) Snapshot() Snapshot {
	lines := make([]line, 0, len(c.sets)*c.cfg.Ways)
	for _, set := range c.sets {
		lines = append(lines, set...)
	}
	return Snapshot{Lines: lines, LRUTick: c.lruTick, Stats: c.Stats}
}

// Restore overwrites the cache state with a snapshot from an identically
// configured cache; it panics on a geometry mismatch.
func (c *Cache) Restore(s Snapshot) {
	if len(s.Lines) != len(c.sets)*c.cfg.Ways {
		panic(fmt.Sprintf("cache %s: restore geometry mismatch: %d lines != %d", c.cfg.Name, len(s.Lines), len(c.sets)*c.cfg.Ways))
	}
	for i, set := range c.sets {
		copy(set, s.Lines[i*c.cfg.Ways:(i+1)*c.cfg.Ways])
	}
	c.lruTick = s.LRUTick
	c.Stats = s.Stats
}

// AppendBinary serializes the snapshot in the durability layer's wire
// format: every line's replacement state followed by the LRU clock and
// counters.
func (s Snapshot) AppendBinary(b []byte) []byte {
	b = wire.AppendU32(b, uint32(len(s.Lines)))
	for _, ln := range s.Lines {
		b = wire.AppendU64(b, ln.tag)
		b = wire.AppendBool(b, ln.valid)
		b = wire.AppendBool(b, ln.dirty)
		b = wire.AppendU32(b, ln.lru)
	}
	b = wire.AppendU32(b, s.LRUTick)
	b = wire.AppendU64(b, s.Stats.Accesses)
	b = wire.AppendU64(b, s.Stats.Hits)
	b = wire.AppendU64(b, s.Stats.Misses)
	b = wire.AppendU64(b, s.Stats.Writebacks)
	b = wire.AppendU64(b, s.Stats.ReadBytes)
	b = wire.AppendU64(b, s.Stats.WriteBytes)
	return b
}

// DecodeSnapshot is the inverse of AppendBinary; errors are latched on r.
func DecodeSnapshot(r *wire.Reader) Snapshot {
	var s Snapshot
	s.Lines = make([]line, r.Count(int(r.U32()), 14))
	for i := range s.Lines {
		s.Lines[i].tag = r.U64()
		s.Lines[i].valid = r.Bool()
		s.Lines[i].dirty = r.Bool()
		s.Lines[i].lru = r.U32()
	}
	s.LRUTick = r.U32()
	s.Stats.Accesses = r.U64()
	s.Stats.Hits = r.U64()
	s.Stats.Misses = r.U64()
	s.Stats.Writebacks = r.U64()
	s.Stats.ReadBytes = r.U64()
	s.Stats.WriteBytes = r.U64()
	return s
}
