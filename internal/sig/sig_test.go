package sig

import (
	"math/rand"
	"testing"

	"rendelim/internal/crc"
)

func randomBlock(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}

func TestBufferLifecycle(t *testing.T) {
	b := NewBuffer(4)
	b.BeginFrame()
	b.Store(2, 0xABCD)

	// No baseline yet: never a match.
	if match, ok := b.Match(2); match || ok {
		t.Fatal("match against empty baseline")
	}
	b.EndFrame() // frame 0 committed to parity 0

	// Frame 1 (other parity): baseline still invalid.
	b.BeginFrame()
	b.Store(2, 0xABCD)
	if _, ok := b.Match(2); ok {
		t.Fatal("frame 1 should compare against the (invalid) other set")
	}
	b.EndFrame()

	// Frame 2 compares against frame 0: same signature matches.
	b.BeginFrame()
	b.Store(2, 0xABCD)
	if match, ok := b.Match(2); !ok || !match {
		t.Fatal("frame 2 should match frame 0")
	}
	// A different signature must not match.
	b.Store(2, 0x1111)
	if match, _ := b.Match(2); match {
		t.Fatal("different signature matched")
	}
	b.EndFrame()
}

func TestBufferDoubleBufferSemantics(t *testing.T) {
	// Signatures alternate A,B,A,B... every frame matches the frame two
	// back, never the immediately preceding one.
	b := NewBuffer(1)
	sigOf := func(f int) uint32 {
		if f%2 == 0 {
			return 0xAAAA
		}
		return 0xBBBB
	}
	for f := 0; f < 6; f++ {
		b.BeginFrame()
		b.Store(0, sigOf(f))
		match, ok := b.Match(0)
		if f >= 2 && (!ok || !match) {
			t.Fatalf("frame %d: want match with frame %d", f, f-2)
		}
		if f < 2 && ok {
			t.Fatalf("frame %d: unexpected valid baseline", f)
		}
		b.EndFrame()
	}
}

func TestBufferInvalidate(t *testing.T) {
	b := NewBuffer(2)
	for f := 0; f < 2; f++ {
		b.BeginFrame()
		b.Store(0, 7)
		b.Store(1, 7)
		b.EndFrame()
	}
	b.InvalidateTile(0)
	b.BeginFrame()
	b.Store(0, 7)
	b.Store(1, 7)
	if _, ok := b.Match(0); ok {
		t.Fatal("invalidated tile still matched")
	}
	if match, ok := b.Match(1); !ok || !match {
		t.Fatal("untouched tile should match")
	}
	b.InvalidateAll()
	if _, ok := b.Match(1); ok {
		t.Fatal("InvalidateAll ineffective")
	}
}

func TestBufferSizeBytes(t *testing.T) {
	// Paper scale: 1196x768 at 16x16 tiles = 75*48 = 3600 tiles; three
	// 4-byte sets = ~43 KB of SRAM, consistent with the <1% area claim.
	b := NewBuffer(3600)
	if b.SizeBytes() != 3600*12 {
		t.Fatalf("SizeBytes = %d", b.SizeBytes())
	}
}

// Equal tile-input streams must produce equal signatures, and the unit's
// incremental result must equal the direct CRC of the serialized stream.
func TestUnitMatchesDirectCRC(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	u := NewUnit(DefaultConfig(), NewBuffer(8))
	u.BeginFrame()

	var want [8][]byte
	appendPadded := func(tile int, block []byte) {
		padded := make([]byte, crc.PaddedLen(len(block)))
		copy(padded, block)
		want[tile] = append(want[tile], padded...)
	}

	consts := randomBlock(rng, 64)
	u.SetConstants(consts)
	for p := 0; p < 10; p++ {
		block := randomBlock(rng, 144)
		tiles := []int{rng.Intn(8), rng.Intn(8)}
		if tiles[0] == tiles[1] {
			tiles = tiles[:1]
		}
		for _, tile := range tiles {
			if len(want[tile]) == 0 { // first touch combines constants
				appendPadded(tile, consts)
			}
			appendPadded(tile, block)
		}
		u.AddPrimitive(block, tiles, 40)
	}
	for tile := 0; tile < 8; tile++ {
		got := u.Buffer().Load(tile)
		if len(want[tile]) == 0 {
			if got != 0 {
				t.Fatalf("tile %d untouched but signature %08x", tile, got)
			}
			continue
		}
		if direct := crc.Checksum(want[tile]); got != direct {
			t.Fatalf("tile %d: unit %08x, direct %08x", tile, got, direct)
		}
	}
}

// Constants must be combined exactly once per tile per constants epoch, even
// when several primitives of the drawcall overlap the same tile (Figure 6).
func TestConstantsCombinedOncePerTile(t *testing.T) {
	u := NewUnit(DefaultConfig(), NewBuffer(2))
	u.BeginFrame()
	consts := []byte("constants-block-0123456789abcdef")
	prim := []byte("primitive-attrs-0123456789abcdef0123456789abcdef")
	u.SetConstants(consts)
	u.AddPrimitive(prim, []int{0}, 40)
	u.AddPrimitive(prim, []int{0}, 40) // same tile, same epoch

	padded := func(b []byte) []byte {
		p := make([]byte, crc.PaddedLen(len(b)))
		copy(p, b)
		return p
	}
	var stream []byte
	stream = append(stream, padded(consts)...)
	stream = append(stream, padded(prim)...)
	stream = append(stream, padded(prim)...)
	if got, want := u.Buffer().Load(0), crc.Checksum(stream); got != want {
		t.Fatalf("constants folded more than once: %08x want %08x", got, want)
	}
}

// A new constants epoch re-combines constants (bitmap cleared).
func TestNewConstantsEpochRecombines(t *testing.T) {
	u := NewUnit(DefaultConfig(), NewBuffer(1))
	u.BeginFrame()
	c1 := []byte("cccc1111")
	c2 := []byte("cccc2222")
	p := []byte("pppppppp")
	u.SetConstants(c1)
	u.AddPrimitive(p, []int{0}, 40)
	u.SetConstants(c2)
	u.AddPrimitive(p, []int{0}, 40)

	var stream []byte
	stream = append(stream, c1...)
	stream = append(stream, p...)
	stream = append(stream, c2...)
	stream = append(stream, p...)
	if got, want := u.Buffer().Load(0), crc.Checksum(stream); got != want {
		t.Fatalf("epoch handling wrong: %08x want %08x", got, want)
	}
}

func TestIdenticalFramesAreRedundant(t *testing.T) {
	u := NewUnit(DefaultConfig(), NewBuffer(4))
	frame := func() {
		u.BeginFrame()
		u.SetConstants([]byte("uniforms"))
		u.AddPrimitive([]byte("prim-a-data-prim-a-data!"), []int{0, 1}, 40)
		u.AddPrimitive([]byte("prim-b-data-prim-b-data!"), []int{2}, 40)
		u.EndFrame()
	}
	frame()
	frame()
	u.BeginFrame()
	u.SetConstants([]byte("uniforms"))
	u.AddPrimitive([]byte("prim-a-data-prim-a-data!"), []int{0, 1}, 40)
	u.AddPrimitive([]byte("prim-b-data-prim-b-data!"), []int{2}, 40)
	for tile := 0; tile < 3; tile++ {
		if !u.CheckTile(tile) {
			t.Fatalf("tile %d should be redundant", tile)
		}
	}
	// Tile 3 never touched: signature 0 both frames -> also redundant
	// (an empty tile whose inputs did not change).
	if !u.CheckTile(3) {
		t.Fatal("empty tile should be redundant")
	}
}

func TestChangedPrimitiveBreaksRedundancy(t *testing.T) {
	u := NewUnit(DefaultConfig(), NewBuffer(2))
	for f := 0; f < 2; f++ {
		u.BeginFrame()
		u.AddPrimitive([]byte("stable-primitive-data-xx"), []int{0}, 40)
		u.AddPrimitive([]byte("moving-primitive-frame-0"), []int{1}, 40)
		u.EndFrame()
	}
	u.BeginFrame()
	u.AddPrimitive([]byte("stable-primitive-data-xx"), []int{0}, 40)
	u.AddPrimitive([]byte("moving-primitive-frame-2"), []int{1}, 40)
	if !u.CheckTile(0) {
		t.Fatal("unchanged tile should be redundant")
	}
	if u.CheckTile(1) {
		t.Fatal("changed tile must not be redundant")
	}
}

// A tile whose primitives are unchanged but whose drawcall's constants
// block changed is not redundant.
func TestChangedConstantsBreakRedundancy(t *testing.T) {
	u := NewUnit(DefaultConfig(), NewBuffer(2))
	frame := func(consts string) {
		u.BeginFrame()
		u.SetConstants([]byte(consts))
		u.AddPrimitive([]byte("stable-primitive-data-xx"), []int{0, 1}, 40)
	}
	for f := 0; f < 2; f++ {
		frame("consts-0")
		u.EndFrame()
	}
	frame("consts-X")
	for tile := 0; tile < 2; tile++ {
		if u.CheckTile(tile) {
			t.Fatalf("tile %d redundant despite changed constants", tile)
		}
	}
}

func TestOTQueueStallsOnHugePrimitive(t *testing.T) {
	// A primitive covering many tiles overruns the 16-entry OT queue and
	// stalls the PLB (Section V: "primitives that cover a large amount of
	// tiles ... overflow of the Overlapped Tiles Queue").
	buf := NewBuffer(512)
	u := NewUnit(DefaultConfig(), buf)
	u.BeginFrame()
	tiles := make([]int, 512)
	for i := range tiles {
		tiles[i] = i
	}
	u.AddPrimitive(make([]byte, 144), tiles, 40)
	if u.Stats.StallCycles == 0 {
		t.Fatal("expected OT queue stall for a full-screen primitive")
	}
	// A deeper queue absorbs more before stalling.
	deep := NewUnit(Config{OTQueueDepth: 4096, AccumCyclesPerTile: 2, Scheme: "crc32"}, NewBuffer(512))
	deep.BeginFrame()
	deep.AddPrimitive(make([]byte, 144), tiles, 40)
	if deep.Stats.StallCycles >= u.Stats.StallCycles {
		t.Fatalf("deeper queue should stall less: %d vs %d", deep.Stats.StallCycles, u.Stats.StallCycles)
	}
}

func TestSmallPrimitivesDontStall(t *testing.T) {
	u := NewUnit(DefaultConfig(), NewBuffer(64))
	u.BeginFrame()
	for p := 0; p < 100; p++ {
		u.AddPrimitive(make([]byte, 144), []int{p % 64}, 40)
	}
	if u.Stats.StallCycles != 0 {
		t.Fatalf("1-tile primitives should not stall (got %d)", u.Stats.StallCycles)
	}
}

// Each compare reads the tile's building and committed signatures: two
// Signature Buffer reads, charged to RE's energy.
func TestCheckTileCostAccounting(t *testing.T) {
	u := NewUnit(DefaultConfig(), NewBuffer(4))
	u.BeginFrame()
	u.CheckTile(0)
	u.CheckTile(1)
	if r, w := u.Buffer().Reads, u.Buffer().Writes; r != 4 || w != 0 {
		t.Fatalf("two compares: %d Signature Buffer reads and %d writes, want 4 and 0", r, w)
	}
}

// Every scheme runs on the same datapath: it takes the cycles CRC32 takes,
// and each signed subblock costs 12 LUT reads (8 sign + 4 shift) and each
// subblock the scheme's own shift amount moves a tile's signature costs 4.
func TestCRCStatsExposeActivity(t *testing.T) {
	wide := make([]int, 40) // overruns the 16-entry OT queue
	for i := range wide {
		wide[i] = i
	}
	consts := make([]byte, 64)
	prims := []struct {
		block []byte
		tiles []int
	}{{make([]byte, 144), []int{0, 1}}, {make([]byte, 20), []int{1}}, {make([]byte, 144), wide}}

	var crcStats Stats
	for i, s := range crc.Schemes() {
		cfg := DefaultConfig()
		cfg.Scheme = s.Name()
		u := NewUnit(cfg, NewBuffer(len(wide)))
		u.BeginFrame()
		u.SetConstants(consts)
		_, constShift := s.SignBlock(consts)
		signed, shifted := uint64(len(consts)/crc.SubblockBytes), uint64(0)
		combined := map[int]bool{}
		for _, p := range prims {
			u.AddPrimitive(p.block, p.tiles, 40)
			_, shift := s.SignBlock(p.block)
			signed += uint64(crc.PaddedLen(len(p.block)) / crc.SubblockBytes)
			for _, tile := range p.tiles {
				if !combined[tile] { // a tile's first update combines the constants too
					combined[tile] = true
					shifted += uint64(constShift)
				}
				shifted += uint64(shift)
			}
		}
		if want := 12*signed + 4*shifted; u.Stats.LUTAccesses != want {
			t.Errorf("%s: %d LUT reads, want 12·%d + 4·%d = %d", s.Name(), u.Stats.LUTAccesses, signed, shifted, want)
		}
		if u.Stats.ConstBlocks != 1 || u.Stats.PrimBlocks != 3 || u.Stats.TileUpdates != 43 {
			t.Errorf("%s: block counts: %+v", s.Name(), u.Stats)
		}
		if i == 0 { // crc.Schemes lists CRC32 first
			crcStats = u.Stats
			if crcStats.StallCycles == 0 {
				t.Fatal("crc32: the 40-tile primitive did not stall")
			}
		} else if u.Stats.BusyCycles != crcStats.BusyCycles || u.Stats.StallCycles != crcStats.StallCycles {
			t.Errorf("%s: busy %d, stall %d cycles; crc32 took %d, %d", s.Name(),
				u.Stats.BusyCycles, u.Stats.StallCycles, crcStats.BusyCycles, crcStats.StallCycles)
		}
	}
}

// The ablation schemes plug in and still detect plain redundancy.
func TestAlternativeSchemesDetectIdenticalFrames(t *testing.T) {
	for _, s := range crc.Schemes() {
		cfg := DefaultConfig()
		cfg.Scheme = s.Name()
		u := NewUnit(cfg, NewBuffer(2))
		for f := 0; f < 3; f++ {
			u.BeginFrame()
			u.SetConstants([]byte("constants"))
			u.AddPrimitive([]byte("primitive-data-primitive"), []int{0, 1}, 40)
			if f == 2 {
				if !u.CheckTile(0) || !u.CheckTile(1) {
					t.Fatalf("%s: identical frames not detected", s.Name())
				}
			}
			u.EndFrame()
		}
	}
}

func TestEmptyConstantsIgnored(t *testing.T) {
	u := NewUnit(DefaultConfig(), NewBuffer(1))
	u.BeginFrame()
	u.SetConstants(nil)
	u.AddPrimitive([]byte("abcdefgh"), []int{0}, 40)
	if got, want := u.Buffer().Load(0), crc.Checksum([]byte("abcdefgh")); got != want {
		t.Fatalf("empty constants corrupted signature: %08x want %08x", got, want)
	}
}
