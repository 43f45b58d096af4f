package gpusim

import (
	"encoding/binary"
	"math"

	"rendelim/internal/api"
	"rendelim/internal/crc"
	"rendelim/internal/geom"
	"rendelim/internal/rast"
	"rendelim/internal/wire"
)

// Fragment Memoization (Arnau et al. [17]) as configured in Section V-A: a
// 32-bit hash of all fragment-shader inputs with screen coordinates
// discarded, a 2048-entry LUT, on top of Parallel Frame Rendering. The LUT's
// sets and ways are not modelled: each tile keeps one table, capped at
// Config.MemoLUTEntries.
//
// PFR renders two consecutive frames in parallel with tiles kept
// synchronized, so frame 2k+1's tile T is shaded immediately after frame
// 2k's tile T — the reuse distance is one tile, not one frame. memoState
// models exactly that: per tile it keeps the hash→color pairs inserted
// while shading the previous frame's same tile (capped at the LUT size).
// Lookups hit (a) fragments already shaded in the current tile (intra-frame
// repetition — the effect that makes hop favor memoization), and (b) on the
// second frame of each pair only, the previous frame's same-tile entries;
// first-of-pair frames cannot reuse across frames because their candidates
// were evicted a whole frame ago (the PFR limitation Section I describes).

// memoTable is one tile's pooled hash→color table: open addressing with
// linear probing and epoch-tagged slots, so the per-frame reset is a counter
// bump instead of a clear or a fresh allocation. A slot is live iff its
// epoch tag equals the table's current epoch; stale slots (from earlier
// frames) terminate probes exactly like empty ones. Tables are never
// iterated by the model, only probed by key, so they are drop-in
// replacements for the maps they pool — and once a table has grown to its
// steady-state size the Memo render path allocates nothing per tile.
type memoTable struct {
	epoch  uint32
	n      int // live entries in the current epoch
	epochs []uint32
	keys   []uint32
	vals   []geom.Vec4
}

// memoTableMinSlots is the initial table size (power of two, ≥ the old
// maps' 64-entry size hint at the 3/4 load factor).
const memoTableMinSlots = 128

// reset opens a new epoch, logically emptying the table in O(1).
func (t *memoTable) reset() {
	t.n = 0
	t.epoch++
	if t.epoch == 0 { // wrapped: stale tags could alias the new epoch
		for i := range t.epochs {
			t.epochs[i] = 0
		}
		t.epoch = 1
	}
}

// lookup probes for h among the current epoch's entries.
func (t *memoTable) lookup(h uint32) (geom.Vec4, bool) {
	if len(t.keys) == 0 {
		return geom.Vec4{}, false
	}
	mask := uint32(len(t.keys) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if t.epochs[i] != t.epoch {
			return geom.Vec4{}, false
		}
		if t.keys[i] == h {
			return t.vals[i], true
		}
	}
}

// insert stores h→v. h must be absent (callers always look up first), so no
// overwrite path exists.
func (t *memoTable) insert(h uint32, v geom.Vec4) {
	if t.n*4 >= len(t.keys)*3 {
		t.grow()
	}
	mask := uint32(len(t.keys) - 1)
	i := h & mask
	for t.epochs[i] == t.epoch {
		i = (i + 1) & mask
	}
	t.epochs[i] = t.epoch
	t.keys[i] = h
	t.vals[i] = v
	t.n++
}

// grow doubles the table and rehashes the live entries. Growth stops once
// the tile's working set fits (bounded by the LUT capacity), after which
// frames are allocation-free.
func (t *memoTable) grow() {
	size := memoTableMinSlots
	if len(t.keys) > 0 {
		size = len(t.keys) * 2
	}
	oldEpoch, oldEpochs, oldKeys, oldVals := t.epoch, t.epochs, t.keys, t.vals
	t.epoch = 1
	t.n = 0
	t.epochs = make([]uint32, size)
	t.keys = make([]uint32, size)
	t.vals = make([]geom.Vec4, size)
	mask := uint32(size - 1)
	for i := range oldKeys {
		if oldEpochs[i] != oldEpoch {
			continue
		}
		j := oldKeys[i] & mask
		for t.epochs[j] == t.epoch {
			j = (j + 1) & mask
		}
		t.epochs[j] = t.epoch
		t.keys[j] = oldKeys[i]
		t.vals[j] = oldVals[i]
		t.n++
	}
}

// memoState is the PFR-synchronized memoization model. The current tile's
// hash→color table is handed out explicitly (tileTable) and passed back at
// commit, so that concurrent tile renders never share mutable state:
// cur[tile] and prev[tile] are only ever touched by tile's own render, which
// keeps them safely per-tile-disjoint under parallel raster execution. Each
// tile owns two pooled tables whose roles swap every frame — the frame
// being rendered inserts into one while reading the other (previous frame's
// entries).
type memoState struct {
	cap  int
	cur  []*memoTable // per tile: table for the frame being rendered
	prev []*memoTable // per tile: entries committed by the previous frame
}

func newMemoState(tiles, lutEntries int) *memoState {
	return &memoState{
		cap:  lutEntries,
		cur:  make([]*memoTable, tiles),
		prev: make([]*memoTable, tiles),
	}
}

// tileTable returns tile's reset current-frame table, allocating it on first
// use (each tile reaches its steady two tables within two frames).
func (m *memoState) tileTable(tile int) *memoTable {
	t := m.cur[tile]
	if t == nil {
		t = new(memoTable)
		m.cur[tile] = t
	}
	t.reset()
	return t
}

// commitTile records the tile's entries as the baseline for the next frame
// and recycles the old baseline table as the tile's next scratch.
func (m *memoState) commitTile(tile int, cur *memoTable) {
	m.cur[tile], m.prev[tile] = m.prev[tile], cur
}

// lookup returns a memoized color from the current tile's entries, or — when
// crossFrame permits it (second frame of a PFR pair) — from the previous
// frame's same tile.
func (m *memoState) lookup(cur *memoTable, tile int, h uint32, crossFrame bool) (geom.Vec4, bool) {
	if c, ok := cur.lookup(h); ok {
		return c, true
	}
	if crossFrame {
		if p := m.prev[tile]; p != nil {
			if c, ok := p.lookup(h); ok {
				return c, true
			}
		}
	}
	return geom.Vec4{}, false
}

// insert memoizes a shaded color, respecting the LUT capacity.
func (m *memoState) insert(cur *memoTable, h uint32, color geom.Vec4) {
	if cur.n >= m.cap {
		return
	}
	cur.insert(h, color)
}

// hasRoom reports whether insert will take one more entry once the pending
// inserts before it have been made.
func (m *memoState) hasRoom(cur *memoTable, pending int) bool {
	return cur.n+pending < m.cap
}

// appendPrev appends the per-tile baselines for a checkpoint: per tile, the
// count and the live (hash, color) pairs in slot order.
func (m *memoState) appendPrev(b []byte) []byte {
	b = wire.AppendU32(b, uint32(len(m.prev)))
	for _, t := range m.prev {
		if t == nil {
			b = wire.AppendU32(b, 0)
			continue
		}
		b = wire.AppendU32(b, uint32(t.n))
		for i, e := range t.epochs {
			if e == t.epoch {
				b = wire.AppendU32(b, t.keys[i])
				b = api.AppendVec4(b, t.vals[i])
			}
		}
	}
	return b
}

// readPrev reads what appendPrev wrote into the per-tile baseline tables; a
// tile count other than the screen's latches wire.ErrCorrupt on r. Entry
// order within a tile is irrelevant: tables are probed by key only.
func (m *memoState) readPrev(r *wire.Reader) {
	r.Length(len(m.prev))
	for i := range m.prev {
		n := r.Count(int(r.U32()), 20)
		if n == 0 {
			m.prev[i] = nil
			continue
		}
		t := m.prev[i]
		if t == nil {
			t = new(memoTable)
			m.prev[i] = t
		}
		t.reset()
		for ; n > 0; n-- {
			t.insert(r.U32(), api.ReadVec4(r))
		}
	}
}

// fragmentHasher builds the 32-bit memoization key from the inputs the
// fragment shader actually reads: the program, the textures it can sample,
// the read uniform registers and the read varyings. Screen coordinates are
// deliberately excluded (Section V-A). All but the varyings are fixed for a
// bin entry, so begin CRCs that prefix once and hash continues the raw CRC
// state over each fragment's read varyings; Update(Update(0, A), B) equals
// Checksum(A‖B), so the key is the CRC of the whole input.
type fragmentHasher struct {
	prefix uint32
	inMask uint16
	buf    [8 + 32*16]byte
}

// begin CRCs the per-draw prefix of the key.
func (fh *fragmentHasher) begin(fsID uint8, texIDs [4]uint8, inMask uint16, constMask uint32, uniforms []geom.Vec4) {
	b := fh.buf[:0]
	b = append(b, fsID, texIDs[0], texIDs[1], texIDs[2], texIDs[3], 0, 0, 0)
	for i, u := range uniforms {
		if constMask&(1<<uint(i)) != 0 {
			b = appendVec(b, u)
		}
	}
	fh.prefix = crc.Checksum(b)
	fh.inMask = inMask
}

// hash returns the key of a fragment with the given varyings.
func (fh *fragmentHasher) hash(varyings *[rast.MaxVaryings]geom.Vec4) uint32 {
	b := fh.buf[:0]
	for i := range varyings {
		// Varying v_{i+1} corresponds to rast.Fragment.Var[i].
		if fh.inMask&(1<<uint(i+1)) != 0 {
			b = appendVec(b, varyings[i])
		}
	}
	return crc.Update(fh.prefix, b)
}

func appendVec(b []byte, v geom.Vec4) []byte {
	var w [16]byte
	binary.LittleEndian.PutUint32(w[0:], math.Float32bits(v.X))
	binary.LittleEndian.PutUint32(w[4:], math.Float32bits(v.Y))
	binary.LittleEndian.PutUint32(w[8:], math.Float32bits(v.Z))
	binary.LittleEndian.PutUint32(w[12:], math.Float32bits(v.W))
	return append(b, w[:]...)
}
