package gpusim

import (
	"fmt"

	"rendelim/internal/api"
	"rendelim/internal/cache"
	"rendelim/internal/crc"
	"rendelim/internal/wire"
)

// Checkpoint wire format. The magic and version lead the blob so Resume can
// reject foreign files and future formats before touching anything else; a
// trailing CRC32 over everything prior catches torn writes and bit rot
// independently of whatever integrity the store layer adds. Version bumps
// are append-only history: Resume must refuse any other version (see
// TestCheckpointCodecVersionRejected), never misparse it.
//
// Version 2 dropped the program and texture tables that version 1 carried:
// Resume rebuilds them from the trace. Version 3 dropped RE state that
// version 2 held twice or never read: a second frame counter, the per-frame
// disable flags (recomputed at each frame start), two decision counters, and
// a copy of the Signature Unit's CRC counters. Version 4 dropped what no
// later frame reads: every activity counter (RunFrame reads them only as
// in-frame differences), the per-frame scratch that BeginFrame resets, and
// the memo lookup and hit counts. An older blob is rejected, which recovery
// treats like any unreadable checkpoint — the job restarts from frame 0.
const (
	ckptMagic   = "RECK"
	ckptVersion = uint16(4)
)

// ErrCheckpointFormat is wrapped by every Resume failure except a
// checkpoint of another trace or technique: bad magic, unknown version, CRC
// mismatch, a frame outside the trace, or truncated or malformed contents.
var ErrCheckpointFormat = fmt.Errorf("gpusim: bad checkpoint format")

// Checkpoint encodes the simulator at a frame boundary into one
// self-contained blob of what a later frame reads and the trace cannot
// rebuild: the double-buffered framebuffer, the API state, RE's and TE's
// committed signature sets, the memoization baselines, the DRAM open rows,
// every cache's lines and LRU clock, and the skip counters — each
// component appending its own state. A run resumed from the blob is
// byte-identical — same per-frame stats, same pixels — to one that ran
// straight through: frame statistics are in-frame differences of activity
// counters, which the blob therefore omits, and every timing-relevant
// structure (cache LRU clocks, DRAM open rows, signature parity) is in it.
//
// The upload-mutable program and texture tables are not captured: they are
// a function of the trace and the frame index, so Resume rebuilds them from
// the trace's registries plus the uploads of the frames the checkpoint
// covers (loadUploadTables), exactly as New and RunFrame build them.
//
// Frame boundaries are the natural checkpoint for the same reason they are
// RE's comparison point: RunFrame never leaves state half-committed
// (RunContext documents this), so a checkpoint taken between frames is
// always consistent. Per-frame scratch (binner, draw/triangle lists, tile
// results, the Signature Unit's building sets, constants register, bitmap
// and queue clocks) is rebuilt from zero each frame and needs no capture.
// Calling Checkpoint mid-frame (from inside RunFrame) is not supported. It
// makes one allocation, the blob.
func (s *Simulator) Checkpoint() []byte {
	b := make([]byte, 0, s.checkpointBound())
	b = append(b, ckptMagic...)
	b = wire.AppendU16(b, ckptVersion)
	b = wire.AppendI64(b, int64(s.frameIdx))
	b = wire.AppendI64(b, int64(s.trace.Width))
	b = wire.AppendI64(b, int64(s.trace.Height))
	b = wire.AppendU8(b, uint8(s.cfg.Technique))
	b = wire.AppendU32(b, s.traceSig)

	b = s.fbuf.AppendState(b)
	b = s.state.AppendState(b)
	b = s.su.Buffer().AppendState(b)
	b = s.teBuf.AppendState(b)
	b = s.memo.appendPrev(b)
	b = s.dram.AppendState(b)
	caches := s.checkpointCaches()
	b = wire.AppendU32(b, uint32(len(caches)))
	for _, c := range caches {
		b = c.AppendState(b)
	}
	b = wire.AppendU32s(b, s.skipCounts)

	// Integrity seal over everything prior.
	return wire.AppendU32(b, crc.Checksum(b))
}

// checkpointBound bounds the blob size from above, so Checkpoint allocates
// once: it counts the element bytes of every variable-length part and
// allows 4 KiB for the fixed-size fields and length prefixes (706 bytes,
// over half of them the uniform registers). The framebuffers dominate.
func (s *Simulator) checkpointBound() int {
	tiles := s.fbuf.NumTiles()
	// Per tile: two signature buffers of two committed signatures and two
	// validity bytes each, a skip counter and a memo count.
	n := 4096 + 8*s.trace.Width*s.trace.Height + (2*10+4+4)*tiles
	for _, t := range s.memo.prev {
		if t != nil {
			n += 20 * t.n
		}
	}
	n += 9 * s.cfg.DRAM.Channels * s.cfg.DRAM.BanksPerChannel
	for _, c := range s.checkpointCaches() {
		n += 14 * c.Config().Sets() * c.Config().Ways
	}
	return n
}

// Resume restores the simulator to the frame boundary a Checkpoint blob
// records, reading each component's state into its own storage and
// rebuilding the program and texture tables from the trace. The blob must
// come from a simulator over the same trace and technique (same dimensions,
// frame count and cache geometry).
//
// Resume checks the header first — magic, CRC, version, trace identity and
// frame range — and a header rejection leaves the simulator untouched. A
// blob that passes its CRC yet does not fit the simulator (possible only for
// bytes that crossed a process boundary) is rejected with an error wrapping
// ErrCheckpointFormat, never a panic: by the component that reads the bad
// count or index, or, after the tables are rebuilt, for a bound program or
// texture they lack, which the next RunFrame would index past. By then
// earlier components hold the blob's state, so the simulator must be
// rebuilt before it runs. After a successful Resume,
// RunFrame(&trace.Frames[s.Frame()]) continues the run exactly where the
// checkpoint left off.
func (s *Simulator) Resume(blob []byte) error {
	if len(blob) < len(ckptMagic)+2+4 {
		return fmt.Errorf("%w: %d bytes is too short", ErrCheckpointFormat, len(blob))
	}
	body := blob[:len(blob)-4]
	r := wire.NewReader(body)
	if magic := r.Raw(len(ckptMagic)); string(magic) != ckptMagic {
		return fmt.Errorf("%w: bad magic %q", ErrCheckpointFormat, magic)
	}
	if got, want := crc.Checksum(body), wire.NewReader(blob[len(body):]).U32(); got != want {
		return fmt.Errorf("%w: CRC mismatch: computed %08x, stored %08x", ErrCheckpointFormat, got, want)
	}
	if v := r.U16(); v != ckptVersion {
		return fmt.Errorf("%w: unknown version %d (this build reads version %d)", ErrCheckpointFormat, v, ckptVersion)
	}
	frame, width, height, tech, sig := r.I64(), r.I64(), r.I64(), Technique(r.U8()), r.U32()
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrCheckpointFormat, err)
	}
	if sig != s.traceSig {
		return fmt.Errorf("gpusim: checkpoint mismatch: checkpoint of a %dx%d %s run cannot restore this simulator",
			width, height, tech)
	}
	if frame < 0 || frame > int64(len(s.trace.Frames)) {
		return fmt.Errorf("%w: frame %d outside a %d-frame trace", ErrCheckpointFormat, frame, len(s.trace.Frames))
	}

	s.fbuf.ReadState(r)
	s.state.ReadState(r)
	s.su.Buffer().ReadState(r)
	s.teBuf.ReadState(r)
	s.memo.readPrev(r)
	s.dram.ReadState(r)
	caches := s.checkpointCaches()
	r.Length(len(caches))
	for _, c := range caches {
		c.ReadState(r)
	}
	r.ReadU32s(s.skipCounts)
	if err := r.Err(); err != nil {
		return fmt.Errorf("%w: %v", ErrCheckpointFormat, err)
	}
	if r.Len() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCheckpointFormat, r.Len())
	}

	s.loadUploadTables(s.trace.Frames[:frame])
	s.forgetTiles()
	if err := s.checkBindings(); err != nil {
		return err
	}
	s.frameIdx = int(frame)
	return nil
}

// checkBindings rejects restored API state that binds a program or texture
// the rebuilt tables lack: the next draw would index past them. The
// reset-time binding is exempt, since a run from frame 0 holds it too until
// its first SetPipeline, whose ids trace validation checks.
func (s *Simulator) checkBindings() error {
	p := s.state.Pipeline
	if p == api.NewState().Pipeline {
		return nil
	}
	for _, id := range [...]api.ProgramID{p.VS, p.FS} {
		if int(id) >= len(s.programs) || s.programs[id] == nil {
			return fmt.Errorf("%w: bound program %d outside the %d-program table", ErrCheckpointFormat, id, len(s.programs))
		}
	}
	for _, id := range p.Tex {
		if int(id) >= len(s.textures) || s.textures[id] == nil {
			return fmt.Errorf("%w: bound texture %d outside the %d-texture table", ErrCheckpointFormat, id, len(s.textures))
		}
	}
	return nil
}

// Frame returns the number of frames the simulator has completed, counting
// those a Resume restored: the index of the frame RunFrame runs next.
func (s *Simulator) Frame() int { return s.frameIdx }

// checkpointCaches lists every cache in a fixed order shared by Checkpoint
// and Resume.
func (s *Simulator) checkpointCaches() [7]*cache.Cache {
	return [7]*cache.Cache{s.vcache, s.tcache[0], s.tcache[1], s.tcache[2], s.tcache[3], s.tilecache, s.l2}
}
