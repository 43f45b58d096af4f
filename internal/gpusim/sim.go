package gpusim

import (
	"context"
	"fmt"

	"rendelim/internal/api"
	"rendelim/internal/cache"
	"rendelim/internal/crc"
	"rendelim/internal/dram"
	"rendelim/internal/fb"
	"rendelim/internal/geom"
	"rendelim/internal/obs"
	"rendelim/internal/rast"
	"rendelim/internal/rerr"
	"rendelim/internal/shader"
	"rendelim/internal/sig"
	"rendelim/internal/texture"
	"rendelim/internal/tiling"
	"rendelim/internal/timing"
)

// drawRec snapshots the pipeline state a drawcall was issued under, so the
// raster phase (which runs after the whole geometry phase) shades with the
// right programs, textures and constants.
type drawRec struct {
	pipe     api.SetPipeline
	uniforms [api.SignedUniforms]geom.Vec4
	numAttrs int
}

// identical reports whether d and o are the same record bit for bit: the
// uniforms compare as geom.Vec4.Identical compares.
//
//re:hotpath
func (d *drawRec) identical(o *drawRec) bool {
	if d.pipe != o.pipe || d.numAttrs != o.numAttrs {
		return false
	}
	for i := range d.uniforms {
		if !d.uniforms[i].Identical(o.uniforms[i]) {
			return false
		}
	}
	return true
}

// triRec is one binned screen-space triangle.
type triRec struct {
	st   rast.ScreenTri
	draw int
}

// progMask caches a program's read sets.
type progMask struct {
	in     uint16
	consts uint32
}

// dramPort routes all traffic into the DRAM model while attributing bytes
// to the simulator's current traffic class.
type dramPort struct{ s *Simulator }

func (p dramPort) Read(addr uint64, size int) int {
	p.s.frame.Traffic[p.s.curClass] += uint64(size)
	return p.s.dram.Read(addr, size)
}

func (p dramPort) Write(addr uint64, size int) int {
	p.s.frame.Traffic[p.s.curClass] += uint64(size)
	return p.s.dram.Write(addr, size)
}

// Simulator replays a trace on the modeled GPU. Create one per (trace,
// config) pair; it is not safe for concurrent use (the tile-worker
// parallelism it manages internally is invisible to callers and never
// changes simulated results — see parallel.go).
type Simulator struct {
	cfg   Config
	trace *api.Trace
	// traceSig signs what checkpoint compatibility depends on: the trace's
	// name, size and frame count, and the technique.
	traceSig uint32

	fbuf   *fb.FrameBuffer
	state  *api.State
	binner *tiling.Binner
	// su is RE's Signature Unit with its Signature Buffer. The geometry
	// phase signs into it under every technique, because the Figure 15a
	// classifier compares its signatures; only RE checks it to skip tiles.
	su        *sig.Unit
	teBuf     *sig.Buffer
	memo      *memoState
	dram      *dram.DRAM
	vcache    *cache.Cache
	tcache    [4]*cache.Cache
	tilecache *cache.Cache
	l2        *cache.Cache

	programs []*shader.Program
	// fsMasks[i] caches programs[i].ReadMasks() for the memo hash.
	fsMasks  []progMask
	textures []*texture.Texture

	vs shader.Batch // vertex-shader VM

	// Raster-phase execution (parallel.go): resolved worker count and the
	// persistent workers holding all per-goroutine mutable state.
	tileWorkers int
	workers     []*rasterWorker

	// arena owns all per-frame scratch, reused across frames (arena.go);
	// frame points at its Stats while RunFrame is executing.
	arena      frameArena
	frame      *Stats
	curClass   TrafficClass
	frameIdx   int
	clearColor uint32
	skipCounts []uint32
	signedPipe api.SetPipeline
	pipeSigned bool

	// RE's disable rules (Section III-E), recomputed at each frame start.
	// reDisabled marks a frame that uploads a shader or texture or draws
	// with multiple render targets bound: it compares no tile and renders
	// normally.
	// refresh marks every RefreshInterval-th frame, which bounds how long a
	// tile may go unrendered: it compares every tile and skips none.
	reDisabled bool
	refresh    bool

	// Tile reuse (Baseline and TE; parallel.go). tilesKept marks that every
	// tile result holds the previous RunFrame's render: that frame ran to
	// its end, and no Resume has come since. reuse, recomputed at each
	// frame, lets decide reuse a tile: the tiles are kept and the frame
	// uploads nothing.
	tilesKept bool
	reuse     bool

	// tracer is the shared sink worker threads register tracks on; tr is the
	// pipeline-stage tracing track. Both are nil when tracing is off, and
	// every emission site is gated on that nil so the disabled path costs
	// nothing (see obs.BenchmarkTracerDisabled).
	tracer *obs.Tracer
	tr     *obs.Thread
}

// New builds a simulator for the trace. The trace is validated; textures are
// synthesized and placed in the simulated address map.
func New(trace *api.Trace, cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := trace.Validate(); err != nil {
		return nil, fmt.Errorf("gpusim: %w: %v", rerr.ErrBadTrace, err)
	}
	s := &Simulator{cfg: cfg, trace: trace}
	s.traceSig = crc.Checksum(fmt.Appendf(nil, "%s/%dx%d/%d/%s",
		trace.Name, trace.Width, trace.Height, len(trace.Frames), cfg.Technique))
	s.dram = dram.New(cfg.DRAM)
	port := dramPort{s}
	s.l2 = cache.New(cfg.L2Cache, port)
	s.vcache = cache.New(cfg.VertexCache, s.l2)
	for i := range s.tcache {
		tc := cfg.TextureCache
		tc.Name = fmt.Sprintf("texture%d", i)
		s.tcache[i] = cache.New(tc, s.l2)
	}
	s.tilecache = cache.New(cfg.TileCache, s.l2)

	s.fbuf = fb.NewFrameBuffer(trace.Width, trace.Height, addrFBBase)
	s.state = api.NewState()
	s.binner = tiling.NewBinner(trace.Width, trace.Height, addrParamBase)
	s.binner.SetExact(cfg.ExactBinning)
	s.su = sig.NewUnit(cfg.Sig, sig.NewBuffer(s.fbuf.NumTiles()))
	s.teBuf = sig.NewBuffer(s.fbuf.NumTiles())
	s.memo = newMemoState(s.fbuf.NumTiles(), cfg.MemoLUTEntries)

	s.loadUploadTables(nil)
	s.clearColor = texture.PackColor(trace.ClearColor)
	s.skipCounts = make([]uint32, s.fbuf.NumTiles())

	// Worker state persists across frames.
	s.tileWorkers = TileWorkerCount(cfg.TileWorkers)
	s.workers = make([]*rasterWorker, s.tileWorkers)
	for i := range s.workers {
		s.workers[i] = newRasterWorker(s, i)
	}

	if cfg.Tracer != nil {
		s.tracer = cfg.Tracer
		s.tr = cfg.Tracer.Thread("sim " + trace.Name + " [" + cfg.Technique.String() + "]")
	}
	return s, nil
}

// loadUploadTables resets the program and texture tables to the trace's
// initial registries, then re-applies the UploadProgram and UploadTexture
// commands of frames — the tables as they stand after those frames ran. New
// loads them with no frames; Resume with the frames its checkpoint covers,
// which is why a checkpoint need not carry either table.
func (s *Simulator) loadUploadTables(frames []api.Frame) {
	s.programs, s.fsMasks, s.textures = s.programs[:0], s.fsMasks[:0], s.textures[:0]
	for i, p := range s.trace.Programs {
		s.setProgram(i, p)
	}
	for i, spec := range s.trace.Textures {
		s.setTexture(i, spec)
	}
	for f := range frames {
		for _, cmd := range frames[f].Commands {
			switch c := cmd.(type) {
			case api.UploadProgram:
				s.setProgram(int(c.ID), c.Program)
			case api.UploadTexture:
				s.setTexture(int(c.ID), c.Spec)
			}
		}
	}
}

// setProgram installs p as program id along with its cached read masks.
// Both tables persist across frames and grow once to the trace's program-ID
// high-water mark.
func (s *Simulator) setProgram(id int, p *shader.Program) {
	for id >= len(s.programs) {
		s.programs = append(s.programs, nil)
		s.fsMasks = append(s.fsMasks, progMask{})
	}
	s.programs[id] = p
	in, consts := p.ReadMasks()
	s.fsMasks[id] = progMask{in: in, consts: consts}
}

// setTexture synthesizes spec as texture id and places it in the simulated
// address map. The table persists across frames and grows once per new
// texture ID.
func (s *Simulator) setTexture(id int, spec api.TextureSpec) {
	for id >= len(s.textures) {
		s.textures = append(s.textures, nil)
	}
	t := spec.Build(id)
	t.Base = addrTexBase + uint64(id)<<24
	s.textures[id] = t
}

// keepsTiles reports whether the technique reuses a tile whose bin repeats
// the previous frame's. RE skips such tiles itself, and Memo's render reads
// its memo tables as well as the bin.
func (s *Simulator) keepsTiles() bool {
	return s.cfg.Technique == Baseline || s.cfg.Technique == TE
}

// forgetTiles makes the next frame render every tile.
func (s *Simulator) forgetTiles() { s.tilesKept = false }

// SkipCounts returns how many times each tile was bypassed so far, indexed
// by tile id — the data behind skip heat-maps (cmd/resim -heatmap).
func (s *Simulator) SkipCounts() []uint32 {
	out := make([]uint32, len(s.skipCounts))
	copy(out, s.skipCounts)
	return out
}

// TilesX returns the tile-grid width, for rendering skip maps.
func (s *Simulator) TilesX() int { return s.fbuf.TilesX() }

// NumTiles returns the screen's tile count.
func (s *Simulator) NumTiles() int { return s.fbuf.NumTiles() }

// FrameBufferSnapshot copies the currently displayed frame (front buffer),
// for image-diff tests and examples.
func (s *Simulator) FrameBufferSnapshot() []uint32 {
	out := make([]uint32, len(s.fbuf.Front()))
	copy(out, s.fbuf.Front())
	return out
}

// Result is a whole-run outcome.
type Result struct {
	Technique Technique
	Name      string
	Frames    []Stats
	Total     Stats

	// FBCRC is the CRC32 of the displayed framebuffer after the final
	// frame, set when a run completes every frame. It extends result
	// comparisons (chaos soak, determinism tests) to the rendered pixels
	// without carrying the framebuffer itself.
	FBCRC uint32
}

// Run replays every frame of the trace and aggregates statistics.
func (s *Simulator) Run() Result {
	res, _ := s.RunContext(context.Background())
	return res
}

// RunContext replays frames until the trace ends or ctx is done, checking
// cancellation cooperatively at frame boundaries (a frame is the smallest
// unit of simulated work; mid-frame state is never left half-committed).
// The partial Result accumulated so far is returned alongside ctx.Err().
func (s *Simulator) RunContext(ctx context.Context) (Result, error) {
	res := Result{Technique: s.cfg.Technique, Name: s.trace.Name}
	res.Frames = make([]Stats, 0, len(s.trace.Frames))
	for i := range s.trace.Frames {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		fs := s.RunFrame(&s.trace.Frames[i])
		res.Frames = append(res.Frames, fs)
		res.Total.Add(fs)
	}
	res.FBCRC = s.FrameBufferCRC()
	return res, nil
}

// FrameBufferCRC signs the displayed (front) buffer; see Result.FBCRC. The
// serialization scratch lives in the frame arena so per-frame CRC checks
// (determinism soaks, chaos tests) do not allocate.
//
//re:hotpath
func (s *Simulator) FrameBufferCRC() uint32 {
	front := s.fbuf.Front()
	if cap(s.arena.crcBuf) < len(front)*4 {
		s.arena.crcBuf = make([]byte, len(front)*4)
	}
	buf := s.arena.crcBuf[:len(front)*4]
	for i, px := range front {
		buf[i*4] = byte(px)
		buf[i*4+1] = byte(px >> 8)
		buf[i*4+2] = byte(px >> 16)
		buf[i*4+3] = byte(px >> 24)
	}
	return crc.Checksum(buf)
}

// RunFrame executes one frame and returns its statistics.
//
//re:hotpath
func (s *Simulator) RunFrame(frame *api.Frame) Stats {
	// A frame that does not run to its end (a panic) leaves no tile kept.
	kept := s.tilesKept
	s.tilesKept = false
	s.arena.beginFrame(s.keepsTiles())
	st := &s.arena.stats
	s.frame = st
	if s.tr != nil {
		s.tr.BeginArg("frame", "frame", int64(s.frameIdx))
	}

	// Snapshot cumulative counters to diff at frame end.
	dramBefore := s.dram.Stats
	suBefore := s.su.Stats
	sbBefore := s.su.Buffer().Reads + s.su.Buffer().Writes
	teBufBefore := s.teBuf.Reads + s.teBuf.Writes
	vsBefore := s.vs.Counts
	cacheBefore := s.cacheAccesses()

	s.state.BeginFrame()
	s.su.BeginFrame()
	s.reDisabled = false
	s.refresh = s.cfg.RefreshInterval > 0 && s.frameIdx > 0 && s.frameIdx%s.cfg.RefreshInterval == 0
	s.binner.Reset()
	s.pipeSigned = false // sign the first bound pipeline of each frame

	var geo timing.GeometryWork
	if s.tr != nil {
		s.tr.Begin("geometry")
	}
	for _, cmd := range frame.Commands {
		switch c := cmd.(type) {
		case api.Draw:
			s.processDraw(c, st, &geo)
		case api.UploadProgram:
			s.state.Apply(cmd)
			s.setProgram(int(c.ID), c.Program)
		case api.UploadTexture:
			s.state.Apply(cmd)
			s.setTexture(int(c.ID), c.Spec)
		case api.SetUniforms:
			s.state.Apply(cmd)
			s.arena.pendingConsts = api.AppendUniformRecord(s.arena.pendingConsts, c)
		default:
			s.state.Apply(cmd)
		}
	}

	// RE disable rules (Section III-E). An upload changes state that the
	// signature does not cover, so "same signature" no longer implies "same
	// colours" across it: every stored baseline goes. An MRT frame
	// (processDraw) keeps them.
	if s.state.UploadsThisFrame {
		s.reDisabled = true
		s.su.Buffer().InvalidateAll()
	}
	// Likewise, a tile's kept render may rest on what an upload replaced.
	s.reuse = kept && s.keepsTiles() && !s.state.UploadsThisFrame

	geo.PBWriteBytes = s.binner.WrittenBytes()
	if s.cfg.Technique == RE {
		geo.SUStallCycles = s.su.Stats.StallCycles - suBefore.StallCycles
		st.SUStallCycles = geo.SUStallCycles
	}
	var vtx, til uint64
	st.GeometryCycles, vtx, til = s.cfg.Timing.GeometryCycles(geo)
	st.StageCycles[StageVertex] += vtx
	st.StageCycles[StageTiling] += til
	st.StageCycles[StageSigCheck] += geo.SUStallCycles
	if s.tr != nil {
		s.tr.End() // geometry
		s.tr.Begin("raster")
	}

	s.rasterPhase(st)
	if s.tr != nil {
		s.tr.End() // raster
	}

	s.su.EndFrame()
	if s.cfg.Technique == TE {
		s.teBuf.EndFrame()
	}
	s.fbuf.Swap()

	// Assemble the energy-model activity from counter deltas.
	// (FSInstructions is accumulated per tile by the raster commit stage —
	// fragment shaders run on per-worker VMs, so there is no single
	// cumulative counter to diff.)
	a := &st.Activity
	a.VSInstructions = s.vs.Counts.Instructions - vsBefore.Instructions
	cacheNow := s.cacheAccesses()
	a.VertexCacheAccesses = cacheNow[0] - cacheBefore[0]
	a.TextureCacheAccesses = cacheNow[1] - cacheBefore[1]
	a.TileCacheAccesses = cacheNow[2] - cacheBefore[2]
	a.L2Accesses = cacheNow[3] - cacheBefore[3]
	a.VerticesFetched = st.Vertices
	a.TrianglesSetup = st.Triangles
	a.QuadsTested = st.QuadsTested
	a.FragmentsBlended = st.FragsRasterized

	switch s.cfg.Technique {
	case RE:
		a.SigBufferAccesses = s.su.Buffer().Reads + s.su.Buffer().Writes - sbBefore
		a.CRCLUTAccesses = s.su.Stats.LUTAccesses - suBefore.LUTAccesses
		a.BitmapAccesses = (s.su.Stats.BitmapReads + s.su.Stats.BitmapWrites) -
			(suBefore.BitmapReads + suBefore.BitmapWrites)
		a.OTQueueAccesses = s.su.Stats.TileUpdates - suBefore.TileUpdates
	case TE:
		// commitTile charges the TE signing's CRCLUTAccesses per tile.
		a.SigBufferAccesses = s.teBuf.Reads + s.teBuf.Writes - teBufBefore
	}

	dNow := s.dram.Stats
	a.DRAMBytes = dNow.TotalBytes() - dramBefore.TotalBytes()
	a.DRAMActivations = dNow.RowMisses - dramBefore.RowMisses
	a.DRAMRequests = (dNow.Reads + dNow.Writes) - (dramBefore.Reads + dramBefore.Writes)
	a.Cycles = st.TotalCycles()

	if s.tr != nil {
		s.tr.Counter("tiles-skipped", "skipped", int64(st.TilesSkipped))
		// Per-frame elimination ratio in permille (counter args are ints):
		// the live, per-frame form of the Figure 15a distribution that the
		// service also aggregates into resvc_sim_frame_eliminated_ratio.
		s.tr.Counter("eliminated-ratio", "permille", int64(st.SkipFraction()*1000))
		s.tr.End() // frame
	}
	s.frameIdx++
	s.frame = nil
	s.tilesKept = true
	return *st
}

// cacheAccesses returns the access counts of the vertex cache, the four
// texture caches together, the tile cache and the L2.
func (s *Simulator) cacheAccesses() [4]uint64 {
	n := [4]uint64{s.vcache.Stats.Accesses, 0, s.tilecache.Stats.Accesses, s.l2.Stats.Accesses}
	for _, tc := range s.tcache {
		n[1] += tc.Stats.Accesses
	}
	return n
}

// accessExtra performs a cache access and returns the latency beyond the
// pipelined hit time, i.e. the stall contribution.
func (s *Simulator) accessExtra(c *cache.Cache, addr uint64, size int, write bool) uint64 {
	lat := c.Access(addr, size, write)
	lines := 0
	lb := c.Config().LineBytes
	for size > 0 {
		chunk := lb - int(addr)%lb
		if chunk > size {
			chunk = size
		}
		lines++
		addr += uint64(chunk)
		size -= chunk
	}
	base := lines * c.Config().Latency
	if lat > base {
		return uint64(lat - base)
	}
	return 0
}

// processDraw runs the geometry pipeline for one draw command.
//
//re:hotpath
func (s *Simulator) processDraw(d api.Draw, st *Stats, geo *timing.GeometryWork) {
	if d.Validate() != nil || d.TriangleCount() == 0 {
		return
	}
	// RE disable rule (Section III-E): drawing with multiple render targets
	// bound, whichever frame bound them, makes this an MRT frame.
	if s.state.RenderTargets > 1 {
		s.reDisabled = true
	}
	// The record is built in place in the arena (not in a local first):
	// rec.uniforms[:] is later handed to the vertex-shader VM, and a slice
	// of a local's array would force a per-draw heap escape.
	drawIdx := len(s.arena.draws)
	//re:arena
	s.arena.draws = append(s.arena.draws, drawRec{})
	rec := &s.arena.draws[drawIdx]
	rec.pipe = s.state.Pipeline
	rec.numAttrs = d.NumAttrs
	copy(rec.uniforms[:], s.state.SignedConstants())

	// Render-state changes are signed alongside the constants: rebinding a
	// program/texture/blend/depth mode changes tile outputs just like a
	// uniform does.
	if !s.pipeSigned || s.signedPipe != rec.pipe {
		s.arena.pendingConsts = api.AppendPipelineRecord(s.arena.pendingConsts, rec.pipe)
		s.signedPipe = rec.pipe
		s.pipeSigned = true
	}

	// A pending uniform or state update opens a new constants epoch in the
	// Signature Unit.
	if len(s.arena.pendingConsts) > 0 {
		s.su.SetConstants(s.arena.pendingConsts)
		s.arena.pendingConsts = s.arena.pendingConsts[:0]
	}

	// Vertex fetch through the vertex cache (static VBO layout: the same
	// simulated addresses every frame).
	if s.tr != nil {
		s.tr.BeginArg("vertex-shading", "draw", int64(drawIdx))
	}
	nv := d.VertexCount()
	st.Vertices += uint64(nv)
	vbase := uint64(addrVertexBase) + uint64(drawIdx)*addrVertexStride
	vbytes := nv * d.VertexBytes()
	geo.VertexBytes += uint64(vbytes)
	s.curClass = TrafficVertex
	for off := 0; off < vbytes; off += 64 {
		n := 64
		if vbytes-off < n {
			n = vbytes - off
		}
		geo.VertexMissCycles += s.accessExtra(s.vcache, vbase+uint64(off), n, false)
	}

	// Vertex shading, up to shader.Lanes vertices per program run.
	vs := s.programs[rec.pipe.VS]
	s.vs.Consts = rec.uniforms[:]
	shaded := s.arena.shaded(nv)
	for first := 0; first < nv; first += shader.Lanes {
		last := min(first+shader.Lanes, nv)
		for v := first; v < last; v++ {
			s.vs.Push(0, d.Vertex(v))
		}
		s.vs.Run(vs)
		for v := first; v < last; v++ {
			shaded[v].Pos = s.vs.Out(v-first, 0)
			for i := 0; i < rast.MaxVaryings; i++ {
				shaded[v].Var[i] = s.vs.Out(v-first, i+1)
			}
		}
	}
	geo.VSInstructions += uint64(nv * vs.Len())
	if s.tr != nil {
		s.tr.End() // vertex-shading
		s.tr.BeginArg("tiling", "draw", int64(drawIdx))
	}

	// Primitive assembly: clip, cull, bin, and sign.
	producer := uint64(vs.Len()*3 + 4)
	nVaryings := d.NumAttrs - 1
	pbBytesPerTri := 3 * (1 + nVaryings) * 16
	for tri := 0; tri < d.TriangleCount(); tri++ {
		st.Triangles++
		s.arena.clipScratch = rast.ClipNear(s.arena.clipScratch[:0],
			rast.Triangle{V: [3]rast.Vertex{
				shaded[d.TriVertexIndex(tri, 0)],
				shaded[d.TriVertexIndex(tri, 1)],
				shaded[d.TriVertexIndex(tri, 2)],
			}})
		for ci := range s.arena.clipScratch {
			stri, ok := rast.Setup(s.arena.clipScratch[ci], s.trace.Width, s.trace.Height, rec.pipe.CullBack)
			if !ok {
				continue
			}
			ref := tiling.PrimRef{Draw: drawIdx, Tri: len(s.arena.tris)}
			tiles := s.binner.Insert(&stri, ref, d.NumAttrs, pbBytesPerTri)
			if len(tiles) == 0 {
				continue
			}
			//re:arena
			s.arena.tris = append(s.arena.tris, triRec{st: stri, draw: drawIdx})
			st.Binned++
			geo.BinTilePairs += uint64(len(tiles))

			// Parameter Buffer writes through the L2.
			s.curClass = TrafficPBWrite
			entry := s.binner.Bin(tiles[0])
			s.l2.Access(entry[len(entry)-1].Addr, pbBytesPerTri, true)
			for _, tile := range tiles {
				s.l2.Access(s.binner.PtrAddr(tile)+uint64(len(s.binner.Bin(tile)))*tiling.PtrEntryBytes, tiling.PtrEntryBytes, true)
			}

			// Sign the primitive's submitted attributes (Section III-E).
			s.arena.primScratch = api.AppendPrimitive(s.arena.primScratch[:0], d, tri)
			s.su.AddPrimitive(s.arena.primScratch, tiles, producer)
		}
	}
	if s.tr != nil {
		s.tr.End() // tiling
	}
}

// dramWrite issues a classified direct-to-DRAM write (tile flush path).
func (s *Simulator) dramWrite(addr uint64, size int) {
	s.frame.Traffic[s.curClass] += uint64(size)
	s.dram.Write(addr, size)
}
