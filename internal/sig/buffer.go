// Package sig implements the Signature Unit of Section III: the on-chip
// Signature Buffer holding per-tile input signatures for the frames in
// flight, the incremental signing datapath built from the Compute CRC and
// Accumulate CRC units, the Overlapped-Tiles (OT) queue with its stall
// behaviour, and the per-drawcall constants CRC with its tile bitmap.
package sig

import "rendelim/internal/wire"

// Buffer is the Signature Buffer. Because the memory system double-buffers
// the Frame Buffer (Section IV-C), a tile rendered in frame N reuses the
// Back Buffer contents of frame N-2, so its signature must be compared
// against the signature set of the frame two swaps back. The buffer
// therefore holds one signature set per Back/Front buffer plus the set being
// built for the current frame.
type Buffer struct {
	numTiles int
	building []uint32 // signatures under construction (geometry phase)
	prev     [2][]uint32
	valid    [2][]bool
	parity   int // which prev set the current frame compares against
	// Access counters for the energy model.
	Reads  uint64
	Writes uint64
}

// NewBuffer allocates a Signature Buffer for numTiles tiles.
func NewBuffer(numTiles int) *Buffer {
	b := &Buffer{numTiles: numTiles}
	b.building = make([]uint32, numTiles)
	for i := range b.prev {
		b.prev[i] = make([]uint32, numTiles)
		b.valid[i] = make([]bool, numTiles)
	}
	return b
}

// NumTiles returns the buffer's tile capacity.
func (b *Buffer) NumTiles() int { return b.numTiles }

// SizeBytes returns the hardware storage the buffer occupies (three sets of
// 4-byte signatures; validity bits are ignored as sub-1% overhead).
func (b *Buffer) SizeBytes() int { return 3 * 4 * b.numTiles }

// BeginFrame resets the building set for a new frame.
func (b *Buffer) BeginFrame() {
	for i := range b.building {
		b.building[i] = 0
	}
}

// Load returns the signature being built for a tile (a Signature Buffer
// read in hardware).
func (b *Buffer) Load(tile int) uint32 {
	b.Reads++
	return b.building[tile]
}

// Store writes back the updated signature for a tile.
func (b *Buffer) Store(tile int, sig uint32) {
	b.Writes++
	b.building[tile] = sig
}

// Match reports whether the tile's new signature equals the signature of the
// frame that produced the current Back Buffer contents (two swaps ago), and
// whether that baseline is valid. One read of each set in hardware.
func (b *Buffer) Match(tile int) (match, baselineValid bool) {
	b.Reads += 2
	if !b.valid[b.parity][tile] {
		return false, false
	}
	return b.building[tile] == b.prev[b.parity][tile], true
}

// EndFrame commits the building set over the set just compared against and
// flips parity for the next frame.
func (b *Buffer) EndFrame() {
	copy(b.prev[b.parity], b.building)
	for i := range b.valid[b.parity] {
		b.valid[b.parity][i] = true
	}
	b.parity = 1 - b.parity
}

// InvalidateAll marks every stored baseline unusable. The driver calls this
// when global state outside the signature (shaders, textures, render-target
// layout) changes, since stale baselines could otherwise alias new outputs
// (Section III-E).
func (b *Buffer) InvalidateAll() {
	for p := range b.valid {
		for i := range b.valid[p] {
			b.valid[p][i] = false
		}
	}
}

// InvalidateTile drops one tile's baseline in both sets; used by the
// periodic-refresh policy to force re-rendering.
func (b *Buffer) InvalidateTile(tile int) {
	for p := range b.valid {
		b.valid[p][tile] = false
	}
}

// AppendState appends what a later frame reads of the buffer, for a
// simulator checkpoint: both committed signature sets with their validity
// bits, and the parity. The building set starts over each frame, and the
// access counters are read only as in-frame differences.
func (b *Buffer) AppendState(dst []byte) []byte {
	dst = wire.AppendU32s(dst, b.prev[0])
	dst = wire.AppendU32s(dst, b.prev[1])
	dst = wire.AppendBools(dst, b.valid[0])
	dst = wire.AppendBools(dst, b.valid[1])
	return wire.AppendI64(dst, int64(b.parity))
}

// ReadState reads what AppendState wrote into the buffer's own storage. A
// set length other than the buffer's tile count, or a parity other than 0
// or 1, latches wire.ErrCorrupt on r.
func (b *Buffer) ReadState(r *wire.Reader) {
	r.ReadU32s(b.prev[0])
	r.ReadU32s(b.prev[1])
	r.ReadBools(b.valid[0])
	r.ReadBools(b.valid[1])
	b.parity = r.Index(len(b.prev))
}
