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
	setShift uint // log2 of the line size: address to line address
	setMask  uint64
	tagShift uint // log2 of the set count: line address to tag
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
		tagShift: uint(bits.TrailingZeros(uint(cfg.Sets()))),
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
		lat, _ := c.accessLine(addr, write)
		total += lat
		addr += uint64(chunk)
		size -= chunk
	}
	return total
}

// ReadRun performs n reads of the size bytes at addr and returns the
// latency of the first. The n−1 repeats hit the line that the first read
// left most recently used, so ReadRun counts them and advances the LRU
// clock exactly as n−1 further Access calls would, each at the hit latency.
// A run of more than one read must lie within one line.
func (c *Cache) ReadRun(addr uint64, size, n int) int {
	if n <= 1 {
		return c.Access(addr, size, false)
	}
	lat, ln := c.accessLine(addr, false)
	k := uint64(n - 1)
	c.Stats.Accesses += k
	c.Stats.Hits += k
	c.lruTick += uint32(k)
	ln.lru = c.lruTick
	return lat
}

// accessLine performs one access within the line holding addr and returns
// its latency and the line, which it leaves most recently used.
func (c *Cache) accessLine(addr uint64, write bool) (int, *line) {
	c.Stats.Accesses++
	lineAddr := addr >> c.setShift
	set := c.sets[lineAddr&c.setMask]
	tag := lineAddr >> c.tagShift

	c.lruTick++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			c.Stats.Hits++
			set[i].lru = c.lruTick
			if write {
				set[i].dirty = true
			}
			return c.cfg.Latency, &set[i]
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
	return lat, &set[victim]
}

func (c *Cache) lineBase(tag, setIdx uint64) uint64 {
	return (tag<<c.tagShift | setIdx) << c.setShift
}

// Read is a NextLevel adapter so caches can stack (e.g. tile cache -> L2).
func (c *Cache) Read(addr uint64, size int) int { return c.Access(addr, size, false) }

// Write is the NextLevel write adapter.
func (c *Cache) Write(addr uint64, size int) int { return c.Access(addr, size, true) }

// AppendState appends the cache's replacement state for a simulator
// checkpoint — every line's tag, validity, dirtiness and LRU stamp, set by
// set, then the LRU clock — so a cache read back from it produces the same
// hit/miss/writeback stream (and therefore the same simulated timing) as
// the original. The simulator reads Stats only as in-frame differences.
func (c *Cache) AppendState(b []byte) []byte {
	b = wire.AppendU32(b, uint32(len(c.sets)*c.cfg.Ways))
	for _, set := range c.sets {
		for _, ln := range set {
			b = wire.AppendU64(b, ln.tag)
			b = wire.AppendBool(b, ln.valid)
			b = wire.AppendBool(b, ln.dirty)
			b = wire.AppendU32(b, ln.lru)
		}
	}
	return wire.AppendU32(b, c.lruTick)
}

// ReadState reads what AppendState wrote into the cache's own lines; a line
// count other than the cache's geometry latches wire.ErrCorrupt on r.
func (c *Cache) ReadState(r *wire.Reader) {
	r.Length(len(c.sets) * c.cfg.Ways)
	for _, set := range c.sets {
		for i := range set {
			set[i] = line{tag: r.U64(), valid: r.Bool(), dirty: r.Bool(), lru: r.U32()}
		}
	}
	c.lruTick = r.U32()
}
