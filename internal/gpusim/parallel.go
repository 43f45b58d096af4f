package gpusim

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"rendelim/internal/api"
	"rendelim/internal/crc"
	"rendelim/internal/fb"
	"rendelim/internal/geom"
	"rendelim/internal/obs"
	"rendelim/internal/rast"
	"rendelim/internal/shader"
	"rendelim/internal/texture"
	"rendelim/internal/tiling"
	"rendelim/internal/timing"
)

// The raster phase runs as a three-stage per-frame pipeline so tiles can be
// rendered on host worker goroutines without changing a single simulated
// number:
//
//  1. decide (serial, tile order): the RE signature check. It mutates shared
//     Signature Unit counters, so it runs exactly where the hardware would
//     perform it — before any tile is scheduled. Under Baseline and TE,
//     decide instead marks a tile reused when the frame uploads nothing and
//     the tile's bin repeats its bin of the previous frame bit for bit:
//     entry by entry, the same triangle, draw record and Parameter Buffer
//     extent. A reused tile is not rendered again; its last render stands.
//     Memo reuses at a distance of two frames, the same frame of the
//     previous PFR pair: the bin must repeat its bin of two frames back,
//     neither this frame nor the previous one may upload, and on a pair's
//     second frame the tile must have been reused in the first, whose memo
//     table its render reads. A reused Memo tile keeps the table its render
//     filled two frames back, which is what the render would fill again.
//  2. render (parallel): the expensive functional work — rasterization,
//     early-Z, fragment shading, blending, memoization and TE color signing
//     — using only per-worker and per-tile state. Instead of touching the
//     shared (stateful, order-sensitive) texture caches, a worker records
//     every texel read into the tile's log, as runs of consecutive reads of
//     one cache line through one unit.
//  3. commit (serial, tile order): replays the tile's Parameter Buffer
//     fetches, which it takes from the tile's current bin, and then its
//     texel log through the shared tile/texture/L2/DRAM hierarchy — the LRU
//     stacks and DRAM row buffers therefore observe exactly the access
//     order of a serial run — then compares the colours against the back
//     buffer (the Figure 15a classes), performs the TE store/match, flushes
//     the tile to the Frame Buffer, and folds the tile's stats shard into
//     the frame's Stats.
//
// Functional results are independent of the memory models (caches are
// address-domain only; texel values come from the texture store), so the
// render stage needs no memory-system state, and the commit replay
// reproduces timing, traffic and energy activity bit-for-bit. A tile's
// colours, stats shard, render work, texel reads and TE signature depend
// only on its bin and on the program and texture tables, which only an
// upload changes, and under Memo on the memo tables its render reads, so
// committing a reused tile's kept render again is exact.
// Its Parameter Buffer addresses are not kept: they move when earlier
// geometry changes. With TileWorkers <= 1 the three stages run inline per
// tile, which is the pre-existing serial execution order.

// texRun is a run of consecutive texel reads through one texture unit that
// fall in one texture-cache line, packed into 8 bytes: the first read's
// address from bit runAddrShift up, the unit in the runUnitBits below it,
// and the count of reads after the first in the low bits. Commit replays a
// run as one cache access followed by that many hits (cache.ReadRun).
type texRun uint64

const (
	runUnitShift  = 16
	runUnitBits   = 2
	runAddrShift  = runUnitShift + runUnitBits
	runMaxRepeats = 1<<runUnitShift - 1

	// texelBytes is the size of one texel read.
	texelBytes = 4
)

// Every texture unit fits in a run's unit bits (a negative constant does
// not compile).
const _ = uint(1<<runUnitBits - api.MaxTexUnits)

func (r texRun) addr() uint64 { return uint64(r) >> runAddrShift }
func (r texRun) unit() int    { return int(r>>runUnitShift) & (1<<runUnitBits - 1) }
func (r texRun) reads() int   { return int(r&runMaxRepeats) + 1 }

// tileShard is the per-tile slice of frame statistics the render stage
// produces; commit folds it into the frame's Stats in tile order.
type tileShard struct {
	quadsTested     uint64
	fragsEarlyZKill uint64
	fragsRasterized uint64
	fragsShaded     uint64
	fragsMemoReused uint64
	depthBufAcc     uint64
	colorBufAcc     uint64
}

// tileResult carries everything one tile's render produced that commit
// needs. Entries are reused across frames; logs keep their capacity. Under
// Baseline and TE each tile keeps an entry of its own, and under Memo one
// per frame parity, so a reused tile commits what the render it reuses
// left there.
type tileResult struct {
	skipped bool // RE bypassed the tile; nothing was rendered
	reused  bool // the bin repeats the kept one's; that render stands

	// tw holds the work of decide and render; commit adds its own to a copy.
	tw     timing.TileWork
	shard  tileShard
	texels []texRun
	tb     fb.TileBuffer

	teSig         uint32
	teLUTAccesses uint64 // CRC LUT reads of signing the tile's colours

	// bin is the tile's bin as the decide that filled the entry saw it
	// (Baseline, TE and Memo).
	bin []binRef
}

// binRef is one entry of a kept bin: its triangle and draw, as indices
// into that frame's lists, and its Parameter Buffer extent.
type binRef struct {
	tri, draw       int32
	bytes, numAttrs int32
}

// reset prepares the entry for a new render, keeping allocated capacity.
//
//re:hotpath
func (r *tileResult) reset() {
	r.skipped, r.reused = false, false
	r.tw = timing.TileWork{}
	r.shard = tileShard{}
	r.texels = r.texels[:0]
	r.teSig = 0
	r.teLUTAccesses = 0
}

// renders reports whether the tile is rendered this frame.
func (r *tileResult) renders() bool { return !r.skipped && !r.reused }

// rasterWorker is the private mutable state one raster goroutine needs: a
// fragment-shader VM, a recording texture sampler, the memo hasher and a
// byte buffer for TE color signing. Workers persist across frames.
type rasterWorker struct {
	s  *Simulator
	id int

	fs        shader.Batch
	sampler   workerSampler
	hasher    fragmentHasher
	frag      rast.Fragment // rasterizer fragment scratch (RasterizeInto)
	teByteBuf [fb.TileSize * fb.TileSize * 4]byte
	// depth is the tile's depth buffer: nothing after the render reads it.
	depth [fb.TileSize * fb.TileSize]float32

	// The open batch's fragments that wait for a shaded colour, in
	// fragment order. A triangle covers a pixel at most once, so a bin
	// entry queues at most one fragment per tile pixel.
	queue [fb.TileSize * fb.TileSize]queuedFrag
	nq    int
	// pend holds the memo keys the open batch will insert (Memo only).
	pend pendingKeys

	// tr is the worker's own trace track ("raster worker N"); lazily opened
	// so untraced runs pay nothing.
	tr *obs.Thread

	// panicked holds what the worker's goroutine recovered in this frame's
	// render stage, for rasterPhase to raise again on its caller.
	panicked any
}

// workerSampler adapts the texture store to the shader VM, recording each
// texel address into the current tile's texel log instead of charging the
// shared texture caches (commit replays the log).
type workerSampler struct {
	res *tileResult
	tex [api.MaxTexUnits]*texture.Texture

	// runMask selects the bits in which a read must equal a run to extend
	// it: the unit and the line address. runCap bounds the reads after a
	// run's first; it is 0 when a texel read can straddle two lines, so
	// that every run stays one read long.
	runMask uint64
	runCap  texRun
}

// Sample implements shader.Sampler. The address-recording callback is a
// capture-free closure over the receiver, so it does not allocate per call.
//
//re:hotpath
func (ws *workerSampler) Sample(unit int, u, v float32) geom.Vec4 {
	t := ws.tex[unit]
	if t == nil {
		return geom.Vec4{}
	}
	//lint:ignore hotpathalloc the closure captures only ws and unit, both live across the call already; escape analysis keeps it on the stack (alloc tests prove 0/tile)
	return t.Sample(u, v, func(addr uint64) { ws.record(addr, unit) })
}

// record logs a texel read at addr through unit, extending the tile's last
// run when the read falls in its line and unit. The log is arena-backed
// (capacity survives reset).
//
//re:hotpath
func (ws *workerSampler) record(addr uint64, unit int) {
	read := texRun(addr<<runAddrShift | uint64(unit)<<runUnitShift)
	runs := ws.res.texels
	if n := len(runs) - 1; n >= 0 && uint64(runs[n]^read)&ws.runMask == 0 && runs[n]&runMaxRepeats < ws.runCap {
		runs[n]++
		return
	}
	//re:arena
	ws.res.texels = append(runs, read)
}

// thread returns the worker's trace track, opening it on first use.
func (w *rasterWorker) thread() *obs.Thread {
	if w.tr == nil && w.s.tracer != nil {
		w.tr = w.s.tracer.Thread(fmt.Sprintf("raster worker %d", w.id))
	}
	return w.tr
}

// queuedFrag is a fragment waiting for the colour of lane: pix is its
// index in the tile buffer.
type queuedFrag struct {
	pix  uint16
	lane uint8
}

// pendingKeys holds the memo keys the open batch will insert, each with the
// lane that shades it: in fragment order, for the inserts once the batch is
// shaded, and in a small epoch-tagged hash index, so a later fragment with
// the same key reuses that lane's colour — the colour a serial run would
// have inserted by then.
type pendingKeys struct {
	n     int
	keys  [shader.Lanes]uint32
	lanes [shader.Lanes]uint8

	epoch uint32 // tag of the open batch's index slots; bumped per batch
	tags  [2 * shader.Lanes]uint32
	slots [2 * shader.Lanes]uint8 // index into keys and lanes
}

const pendSlotMask = 2*shader.Lanes - 1

// lookup returns the lane shading key h in the open batch, if any.
//
//re:hotpath
func (p *pendingKeys) lookup(h uint32) (int, bool) {
	if p.n == 0 {
		return 0, false
	}
	for j := h & pendSlotMask; p.tags[j] == p.epoch; j = (j + 1) & pendSlotMask {
		if k := p.slots[j]; p.keys[k] == h {
			return int(p.lanes[k]), true
		}
	}
	return 0, false
}

// add records that lane shades the absent key h.
//
//re:hotpath
func (p *pendingKeys) add(h uint32, lane int) {
	if p.n == 0 {
		p.epoch++
		if p.epoch == 0 { // wrapped: stale tags could alias the new epoch
			p.tags = [2 * shader.Lanes]uint32{}
			p.epoch = 1
		}
	}
	j := h & pendSlotMask
	for p.tags[j] == p.epoch {
		j = (j + 1) & pendSlotMask
	}
	p.tags[j], p.slots[j] = p.epoch, uint8(p.n)
	p.keys[p.n], p.lanes[p.n] = h, uint8(lane)
	p.n++
}

// newRasterWorker builds one worker bound to the simulator's shared
// read-only tables.
func newRasterWorker(s *Simulator, id int) *rasterWorker {
	w := &rasterWorker{s: s, id: id}
	w.fs.Sampler = &w.sampler
	line := s.cfg.TextureCache.LineBytes
	w.sampler.runMask = ^uint64(0)<<(runAddrShift+bits.TrailingZeros(uint(line))) |
		(1<<runUnitBits-1)<<runUnitShift
	if line >= texelBytes {
		w.sampler.runCap = runMaxRepeats
	}
	return w
}

// compareCycles is the cost of one RE signature check: a Signature Buffer
// read pair and a 32-bit compare, "a few cycles" (Section V).
const compareCycles = 4

// decideTile is the serial pre-raster stage: the RE signature check for one
// tile, charging Signature Unit costs in tile order exactly like the
// hardware's raster scheduler, or, under Baseline, TE and Memo, the reuse
// check.
//
//re:hotpath
func (s *Simulator) decideTile(tile int, res *tileResult) {
	if s.reuseDistance() > 0 && s.rebin(tile, res) && s.pairKept(tile) {
		res.reused = true
		return
	}
	res.reset()
	if s.cfg.Technique == RE && !s.reDisabled {
		res.tw.CompareCycles = compareCycles
		if s.tr != nil {
			s.tr.BeginArg("re-check", "tile", int64(tile))
		}
		// A refresh frame still compares (and pays for) every tile.
		res.skipped = s.su.CheckTile(tile) && !s.refresh
		if s.tr != nil {
			s.tr.End() // re-check
		}
	}
}

// pairKept reports whether a Memo tile whose bin repeats may reuse: on the
// first frame of a PFR pair always, and on the second only if the tile was
// reused in the first too, since its render reads the memo table that the
// first frame filled. Under Baseline and TE it always may.
//
//re:hotpath
func (s *Simulator) pairKept(tile int) bool {
	return s.cfg.Technique != Memo || s.frameIdx%2 == 0 || s.frameTiles(s.frameIdx - 1)[tile].reused
}

// rebin reports whether tile's bin repeats, entry by entry and bit for bit,
// the bin that res kept from the frame a reuse distance back — compared only
// when this frame may reuse — and then keeps the current bin in its place.
//
//re:hotpath
func (s *Simulator) rebin(tile int, res *tileResult) bool {
	bin := s.binner.Bin(tile)
	same := s.reuse && len(bin) == len(res.bin)
	past := &s.arena.past[s.reuseDistance()-1]
	for i := 0; same && i < len(bin); i++ {
		same = s.repeats(past, res.bin[i], &bin[i])
	}
	res.bin = res.bin[:0]
	for _, e := range bin {
		//re:arena
		res.bin = append(res.bin, binRef{
			tri: int32(e.Ref.Tri), draw: int32(e.Ref.Draw),
			bytes: int32(e.Bytes), numAttrs: int32(e.NumAttrs),
		})
	}
	return same
}

// repeats reports whether bin entry e repeats r, an entry of a kept bin
// that indexes the lists past: the same Parameter Buffer extent, and the
// same triangle and draw record bit for bit.
//
//re:hotpath
func (s *Simulator) repeats(past *frameLists, r binRef, e *tiling.Entry) bool {
	a := &s.arena
	return int(r.bytes) == e.Bytes && int(r.numAttrs) == e.NumAttrs &&
		past.tris[r.tri].st.Identical(&a.tris[e.Ref.Tri].st) &&
		past.draws[r.draw].identical(&a.draws[e.Ref.Draw])
}

// renderTile is the parallel stage: the whole functional Raster Pipeline for
// one tile, against per-worker and per-tile state only. tr is the trace
// track to emit spans on (the worker's own track under parallel execution).
//
//re:hotpath
func (w *rasterWorker) renderTile(tile int, res *tileResult, tr *obs.Thread) {
	s := w.s
	rect := s.fbuf.TileRect(tile)
	res.tb.Clear(s.clearColor)
	for i := range w.depth {
		w.depth[i] = 1
	}
	bin := s.binner.Bin(tile)
	if tr != nil {
		tr.BeginArg("raster-tile", "tile", int64(tile))
	}

	fsBefore := w.fs.Counts.Instructions
	if tr != nil {
		tr.Begin("fragment-shading")
	}
	// PFR pairing: the second frame of each pair may reuse the first's
	// same-tile entries; the first of a pair only reuses intra-frame.
	crossFrame := s.frameIdx%2 == 1
	var memoCur *memoTable
	if s.cfg.Technique == Memo {
		memoCur = s.memo.tileTable(tile)
	}
	var tileFrags uint64
	st := &res.shard
	w.sampler.res = res

	// Early-Z survivors of one bin entry are gathered into the shader batch
	// and shaded a batch at a time; a batch never spans two entries, since
	// the next entry's program, constants, textures, depth and colour
	// depend on this one being finished. A shaded fragment blends once its
	// batch has run, a memo hit at once: a triangle covers each pixel at
	// most once, so no fragment of an entry reads a colour another writes.
	for _, e := range bin {
		tri := &s.arena.tris[e.Ref.Tri]
		draw := &s.arena.draws[e.Ref.Draw]
		fsProg := s.programs[draw.pipe.FS]
		for u := range w.sampler.tex {
			w.sampler.tex[u] = s.textures[draw.pipe.Tex[u]]
		}
		w.fs.Consts = draw.uniforms[:]
		res.tw.SetupAttrs += uint64(3 * e.NumAttrs * 4)
		if memoCur != nil {
			mask := s.fsMasks[draw.pipe.FS]
			w.hasher.begin(uint8(draw.pipe.FS), [4]uint8{
				uint8(draw.pipe.Tex[0]), uint8(draw.pipe.Tex[1]),
				uint8(draw.pipe.Tex[2]), uint8(draw.pipe.Tex[3]),
			}, mask.in, mask.consts, draw.uniforms[:])
		}

		depthTest := draw.pipe.DepthTest
		depthWrite := draw.pipe.DepthWrite
		blend := draw.pipe.Blend

		tri.st.RasterizeInto(rect, &w.frag,
			//lint:ignore hotpathalloc the quad closure is consumed inside the call and never stored; escape analysis stack-allocates it (alloc tests prove 0/tile)
			func(qx, qy int, mask uint8) {
				res.tw.Quads++
				st.quadsTested++
				st.depthBufAcc += 2 // test + conditional update
			},
			//lint:ignore hotpathalloc the fragment closure is consumed inside the call and never stored; escape analysis stack-allocates it (alloc tests prove 0/tile)
			func(f *rast.Fragment) {
				idx := fb.Idx(f.X-rect.X0, f.Y-rect.Y0)
				if depthTest {
					if f.Z >= w.depth[idx] {
						st.fragsEarlyZKill++
						return
					}
					if depthWrite {
						w.depth[idx] = f.Z
					}
				}
				st.fragsRasterized++
				tileFrags++

				// Memo lookups and inserts stay in fragment order: a miss's
				// key is pending until its batch is shaded, and a later
				// fragment with that key takes the pending lane's colour.
				var h uint32
				if memoCur != nil {
					h = w.hasher.hash(&f.Var)
					if lane, ok := w.pend.lookup(h); ok {
						st.fragsMemoReused++
						w.enqueue(idx, lane)
						return
					}
					if c, ok := s.memo.lookup(memoCur, tile, h, crossFrame); ok {
						st.fragsMemoReused++
						blendPixel(res, idx, c, blend)
						return
					}
				}
				lane := w.fs.Push(1, f.Var[:])
				st.fragsShaded++
				if memoCur != nil && s.memo.hasRoom(memoCur, w.pend.n) {
					w.pend.add(h, lane)
				}
				w.enqueue(idx, lane)
				if lane == shader.Lanes-1 {
					w.shadeBatch(fsProg, res, memoCur, blend)
				}
			})
		w.shadeBatch(fsProg, res, memoCur, blend)
	}
	if s.cfg.Technique == Memo {
		s.memo.commitTile(tile, memoCur)
	}
	res.tw.FSInstructions = w.fs.Counts.Instructions - fsBefore
	res.tw.BlendFrags = tileFrags
	if tr != nil {
		tr.End() // fragment-shading
	}

	// Transaction Elimination: sign the rendered colors with the Compute
	// CRC unit; commit charges its LUT reads and does store/match.
	if s.cfg.Technique == TE {
		tilew := rect.X1 - rect.X0
		npx := rect.Area()
		for i := 0; i < npx; i++ {
			binary.LittleEndian.PutUint32(w.teByteBuf[i*4:], res.tb.Color[fb.Idx(i%tilew, i/tilew)])
		}
		var subblocks int
		res.teSig, subblocks = crc.CRC32Scheme{}.SignBlock(w.teByteBuf[:npx*4])
		res.teLUTAccesses = uint64(subblocks) * crc.SignLUTReads
	}
	if tr != nil {
		tr.End() // raster-tile
	}
}

// enqueue queues the fragment at tile pixel idx for the colour of lane.
//
//re:hotpath
func (w *rasterWorker) enqueue(idx, lane int) {
	w.queue[w.nq] = queuedFrag{pix: uint16(idx), lane: uint8(lane)}
	w.nq++
}

// shadeBatch runs the fragment program over the open batch, memoizes the
// colours of the keys it was pending, in fragment order, and blends every
// queued fragment.
//
//re:hotpath
func (w *rasterWorker) shadeBatch(p *shader.Program, res *tileResult, memoCur *memoTable, blend api.BlendMode) {
	if w.nq == 0 {
		return
	}
	w.fs.Run(p)
	for i := 0; i < w.pend.n; i++ {
		w.s.memo.insert(memoCur, w.pend.keys[i], w.fs.Out(int(w.pend.lanes[i]), 0))
	}
	w.pend.n = 0
	for _, q := range w.queue[:w.nq] {
		blendPixel(res, int(q.pix), w.fs.Out(int(q.lane), 0), blend)
	}
	w.nq = 0
}

// blendPixel writes a fragment's colour into the tile's Color Buffer,
// alpha-blending over the destination when the draw asks for it.
//
//re:hotpath
func blendPixel(res *tileResult, idx int, color geom.Vec4, blend api.BlendMode) {
	packed := texture.PackColor(color)
	if blend == api.BlendAlpha {
		dst := texture.UnpackColor(res.tb.Color[idx])
		a := color.W
		out := color.Scale(a).Add(dst.Scale(1 - a))
		out.W = a + dst.W*(1-a)
		packed = texture.PackColor(out)
		res.shard.colorBufAcc++ // destination read
	}
	res.tb.Color[idx] = packed
	res.shard.colorBufAcc++
}

// commitTile is the serial post-raster stage: it replays the tile's
// Parameter Buffer fetches and recorded texel reads through the shared
// cache hierarchy (in tile order, i.e. the serial access order), performs
// the order-sensitive TE and Frame Buffer updates, and folds the tile's
// shard into the frame's statistics — for a reused tile, from what its last
// render left.
//
//re:hotpath
func (s *Simulator) commitTile(tile int, res *tileResult, st *Stats) {
	st.TilesTotal++
	tw := res.tw

	if res.skipped {
		// Rendering Elimination bypass: the whole Raster Pipeline is
		// skipped and the Frame Buffer keeps the previous colors.
		tw.Skipped = true
		st.TilesSkipped++
		s.skipCounts[tile]++
		st.TileClasses[TileEqColorEqInput]++
		st.TilesClassified++
		cyc, sigC, _, _, _ := s.cfg.Timing.TileCycles(tw)
		st.StageCycles[StageSigCheck] += sigC
		st.RasterCycles += cyc
		if s.tr != nil {
			s.tr.Instant("tile-eliminated", "tile", int64(tile))
		}
		return
	}
	if res.reused {
		if s.tr != nil {
			s.tr.Instant("tile-reused", "tile", int64(tile))
		}
		// The memo table the kept render filled is the one the render would
		// fill again: it becomes the tile's baseline as it stands.
		if s.cfg.Technique == Memo {
			s.memo.commitTile(tile, s.memo.cur[tile])
		}
	}

	// Tile Scheduler: the pointer-list and primitive fetches through the
	// Tile Cache, from the current bin.
	s.curClass = TrafficPBRead
	ptr := s.binner.PtrAddr(tile)
	for i, e := range s.binner.Bin(tile) {
		tw.FetchMissCycles += s.accessExtra(s.tilecache, ptr+uint64(i)*tiling.PtrEntryBytes, tiling.PtrEntryBytes, false)
		tw.FetchMissCycles += s.accessExtra(s.tilecache, e.Addr, e.Bytes, false)
		tw.FetchBytes += uint64(e.Bytes) + tiling.PtrEntryBytes
	}

	// Then the render's texel reads, in its order.
	s.curClass = TrafficTexel
	for _, r := range res.texels {
		c := s.tcache[r.unit()]
		if extra := c.ReadRun(r.addr(), texelBytes, r.reads()) - c.Config().Latency; extra > 0 {
			tw.TexMissCycles += uint64(extra)
		}
	}

	// Fold the tile's stats shard.
	sh := &res.shard
	st.QuadsTested += sh.quadsTested
	st.FragsEarlyZKill += sh.fragsEarlyZKill
	st.FragsRasterized += sh.fragsRasterized
	st.FragsShaded += sh.fragsShaded
	st.FragsMemoReused += sh.fragsMemoReused
	st.Activity.DepthBufferAccesses += sh.depthBufAcc
	st.Activity.ColorBufferAccesses += sh.colorBufAcc
	st.Activity.FSInstructions += tw.FSInstructions

	// Ground-truth classification against the frame two swaps back, which
	// the back buffer holds until this tile's flush.
	if match, valid := s.su.Buffer().Match(tile); valid {
		eqColor := s.fbuf.TileEqualsBack(tile, &res.tb)
		st.TilesClassified++
		switch {
		case eqColor && match:
			st.TileClasses[TileEqColorEqInput]++
		case eqColor && !match:
			st.TileClasses[TileEqColorDiffInput]++
		case !eqColor && match:
			st.TileClasses[TileEqInputDiffColor]++ // CRC collision
		default:
			st.TileClasses[TileDiffColor]++
		}
	}

	// Transaction Elimination: store the color signature and skip the flush
	// when it matches the Back Buffer's previous contents (Section IV-C).
	doFlush := true
	if s.cfg.Technique == TE {
		st.Activity.CRCLUTAccesses += res.teLUTAccesses
		s.teBuf.Store(tile, res.teSig)
		if match, valid := s.teBuf.Match(tile); valid && match {
			doFlush = false
		}
	}

	// Tile flush: write the Color Buffer out to the Frame Buffer in DRAM.
	if doFlush {
		if s.tr != nil {
			s.tr.Begin("dram-flush")
		}
		rect := s.fbuf.TileRect(tile)
		st.FlushesDone++
		bytes := s.fbuf.FlushTile(tile, &res.tb)
		tw.FlushBytes = uint64(bytes)
		st.Activity.ColorBufferAccesses += uint64((bytes + 63) / 64)
		s.curClass = TrafficColor
		for y := rect.Y0; y < rect.Y1; y++ {
			s.dramWrite(s.fbuf.PixelAddr(rect.X0, y), (rect.X1-rect.X0)*4)
		}
		if s.tr != nil {
			s.tr.End() // dram-flush
		}
	} else {
		st.FlushesSkipped++
	}

	cyc, sigC, rastC, fragC, flushC := s.cfg.Timing.TileCycles(tw)
	st.StageCycles[StageSigCheck] += sigC
	st.StageCycles[StageRaster] += rastC
	st.StageCycles[StageFragment] += fragC
	st.StageCycles[StageFlush] += flushC
	st.RasterCycles += cyc
}

// frameTiles returns the tile results that frame fills. A technique that
// reuses the render d frames back keeps d sets of one result per tile, and
// frame f fills set f mod d. RE renders every tile it does not skip, so on
// its serial path one result serves every tile.
func (s *Simulator) frameTiles(frame int) []tileResult {
	n, d := s.fbuf.NumTiles(), s.reuseDistance()
	if d == 0 {
		if s.tileWorkers <= 1 {
			n = 1
		}
		return s.arena.tiles(n)
	}
	return s.arena.tiles(d * n)[frame%d*n:][:n]
}

// rasterPhase executes the frame's raster pipeline over all tiles. With one
// worker the three stages run inline per tile (the serial execution order);
// with more, decisions are made up front, tiles render concurrently on the
// worker pool into one result each, and commits replay in tile order —
// simulated results are byte-identical either way. A worker's panic is
// raised again on the caller once every worker has stopped, so the caller's
// recover sees it at any worker count.
func (s *Simulator) rasterPhase(st *Stats) {
	n := s.fbuf.NumTiles()
	nw := min(s.tileWorkers, n)
	tiles := s.frameTiles(s.frameIdx)
	if nw <= 1 {
		w := s.workers[0]
		for tile := 0; tile < n; tile++ {
			res := &tiles[tile%len(tiles)]
			s.decideTile(tile, res)
			if res.renders() {
				w.renderTile(tile, res, s.tr)
			}
			s.commitTile(tile, res, st)
		}
		return
	}

	for tile := 0; tile < n; tile++ {
		s.decideTile(tile, &tiles[tile])
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < nw; i++ {
		w := s.workers[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					w.panicked = r
					next.Store(int64(n)) // the other workers claim no more tiles
				}
			}()
			tr := w.thread()
			for {
				tile := int(next.Add(1)) - 1
				if tile >= n {
					return
				}
				res := &tiles[tile]
				if res.renders() {
					w.renderTile(tile, res, tr)
				}
			}
		}()
	}
	wg.Wait()
	var panicked any
	for _, w := range s.workers[:nw] {
		if panicked == nil {
			panicked = w.panicked
		}
		w.panicked = nil
	}
	if panicked != nil {
		panic(panicked)
	}

	for tile := 0; tile < n; tile++ {
		s.commitTile(tile, &tiles[tile], st)
	}
}
