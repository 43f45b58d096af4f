package gpusim

import (
	"fmt"

	"rendelim/internal/api"
	"rendelim/internal/cache"
	"rendelim/internal/core"
	"rendelim/internal/crc"
	"rendelim/internal/dram"
	"rendelim/internal/fb"
	"rendelim/internal/shader"
	"rendelim/internal/sig"
)

// Checkpoint is a frame-boundary snapshot of the cross-frame simulator state
// that the trace cannot rebuild: the double-buffered framebuffer, the RE
// controller with its Signature Buffer, the TE signature buffer and CRC
// counters, the memoization baselines, the DRAM row-buffer state, all cache
// tag/LRU arrays, the API state, and the counters. A run restored from a
// checkpoint is byte-identical — same per-frame stats, same pixels — to one
// that ran straight through, because frame statistics are computed as deltas
// of these counters and every timing-relevant structure (cache LRU clocks,
// DRAM open rows, signature parity) is captured.
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
// results) is rebuilt from zero each frame and needs no capture.
//
// Checkpoints are restorable onto the simulator they came from (rewind) or
// onto a fresh Simulator built from the same trace and config (the job
// pool's recovery path — a mid-frame panic leaves the original simulator's
// internals unusable, so recovery always rebuilds).
type Checkpoint struct {
	frameIdx  int
	width     int
	height    int
	technique Technique
	traceSig  uint32 // guards against restoring across different traces

	fbuf     fb.Snapshot
	stateVal api.State // value copy; api.State holds no reference types
	re       core.Snapshot
	teBuf    sig.BufferSnapshot
	teCRC    crc.UnitStats

	// memoPrev is a compact deep copy of the per-tile memoization
	// baselines. The live tables are pooled and mutated again on later
	// frames (memoState swaps their roles), so the checkpoint extracts the
	// entries rather than sharing the tables.
	memoPrev    [][]memoEntry
	memoLookups uint64
	memoHits    uint64

	dram   dram.Snapshot
	caches []cache.Snapshot // vcache, tcache[0..3], tilecache, l2

	vsCounts   shader.Counts
	skipCounts []uint32
}

// Frame returns the number of completed frames the checkpoint covers:
// resuming replays the trace from frame index Frame().
func (cp *Checkpoint) Frame() int { return cp.frameIdx }

// traceIdentity signs what checkpoint compatibility depends on.
func (s *Simulator) traceIdentity() uint32 {
	return crc.Checksum([]byte(fmt.Sprintf("%s/%dx%d/%d/%s",
		s.trace.Name, s.trace.Width, s.trace.Height, len(s.trace.Frames), s.cfg.Technique)))
}

// Checkpoint snapshots the simulator at a frame boundary. Calling it
// mid-frame (from inside RunFrame) is not supported.
func (s *Simulator) Checkpoint() *Checkpoint {
	cp := &Checkpoint{
		frameIdx:  s.frameIdx,
		width:     s.trace.Width,
		height:    s.trace.Height,
		technique: s.cfg.Technique,
		traceSig:  s.traceIdentity(),

		fbuf:  s.fbuf.Snapshot(),
		re:    s.re.Snapshot(),
		teBuf: s.teBuf.Snapshot(),
		teCRC: s.teCRC.Stats,

		memoPrev:    s.memo.snapshotPrev(),
		memoLookups: s.memo.Lookups,
		memoHits:    s.memo.Hits,

		dram: s.dram.Snapshot(),

		vsCounts:   s.vs.Counts,
		skipCounts: append([]uint32(nil), s.skipCounts...),
	}
	for _, c := range s.checkpointCaches() {
		cp.caches = append(cp.caches, c.Snapshot())
	}
	cp.stateVal = *s.state
	return cp
}

// Resume restores the simulator to the checkpointed frame boundary, rebuilding
// the program and texture tables from the trace. The checkpoint must come
// from a simulator over the same trace and technique (same dimensions, frame
// count and cache geometry); otherwise an error is returned and the simulator
// is left untouched. A checkpoint whose contents do not fit this simulator —
// possible only for a blob that crossed a process boundary and passed its
// CRC — is rejected with an error wrapping ErrCheckpointFormat, before
// anything is written. After a successful Resume,
// RunFrame(&trace.Frames[cp.Frame()]) continues the run exactly where the
// checkpoint left off.
func (s *Simulator) Resume(cp *Checkpoint) error {
	if cp == nil {
		return fmt.Errorf("gpusim: nil checkpoint")
	}
	if cp.traceSig != s.traceIdentity() {
		return fmt.Errorf("gpusim: checkpoint mismatch: snapshot of a %dx%d %s run cannot restore this simulator",
			cp.width, cp.height, cp.technique)
	}
	if err := s.checkShape(cp); err != nil {
		return fmt.Errorf("%w: %v", ErrCheckpointFormat, err)
	}
	s.fbuf.Restore(cp.fbuf)
	s.re.Restore(cp.re)
	s.teBuf.Restore(cp.teBuf)
	s.teCRC.Stats = cp.teCRC

	s.memo.restorePrev(cp.memoPrev)
	s.memo.Lookups = cp.memoLookups
	s.memo.Hits = cp.memoHits

	s.dram.Restore(cp.dram)
	for i, c := range s.checkpointCaches() {
		c.Restore(cp.caches[i])
	}

	s.loadUploadTables(s.trace.Frames[:cp.frameIdx])

	s.vs.Counts = cp.vsCounts
	copy(s.skipCounts, cp.skipCounts)
	*s.state = cp.stateVal
	s.frameIdx = cp.frameIdx
	return nil
}

// checkShape verifies that every length and index in cp fits this
// simulator, so the Restore calls that follow can neither panic nor copy
// short. The simulator's own snapshots always fit; the check guards decoded
// blobs, whose CRC proves only that they are the bytes that were written.
func (s *Simulator) checkShape(cp *Checkpoint) error {
	if cp.frameIdx < 0 || cp.frameIdx > len(s.trace.Frames) {
		return fmt.Errorf("frame %d outside a %d-frame trace", cp.frameIdx, len(s.trace.Frames))
	}
	re, te := cp.re.Unit.Buf, cp.teBuf
	// The front buffer and both signature parities index two-entry arrays.
	for _, i := range []int{cp.fbuf.Front, re.Parity, te.Parity} {
		if i != 0 && i != 1 {
			return fmt.Errorf("buffer index %d, want 0 or 1", i)
		}
	}
	var err error
	want := func(what string, got, n int) {
		if err == nil && got != n {
			err = fmt.Errorf("%s: %d, simulator has %d", what, got, n)
		}
	}
	tiles, pixels := s.fbuf.NumTiles(), s.trace.Width*s.trace.Height
	want("framebuffer 0 pixels", len(cp.fbuf.Bufs[0]), pixels)
	want("framebuffer 1 pixels", len(cp.fbuf.Bufs[1]), pixels)
	for _, b := range []sig.BufferSnapshot{re, te} {
		for _, n := range []int{len(b.Building), len(b.Prev[0]), len(b.Prev[1]), len(b.Valid[0]), len(b.Valid[1])} {
			want("signature buffer tiles", n, tiles)
		}
	}
	want("RE bitmap tiles", len(cp.re.Unit.Bitmap), tiles)
	want("memo tiles", len(cp.memoPrev), tiles)
	want("skip counters", len(cp.skipCounts), tiles)
	want("DRAM banks", len(cp.dram.Banks), s.cfg.DRAM.Channels*s.cfg.DRAM.BanksPerChannel)
	caches := s.checkpointCaches()
	want("cache snapshots", len(cp.caches), len(caches))
	if err == nil {
		for i, c := range caches {
			cc := c.Config()
			want("cache "+cc.Name+" lines", len(cp.caches[i].Lines), cc.Sets()*cc.Ways)
		}
	}
	return err
}

// checkpointCaches lists every cache in a fixed order shared by Checkpoint
// and Resume.
func (s *Simulator) checkpointCaches() []*cache.Cache {
	return []*cache.Cache{s.vcache, s.tcache[0], s.tcache[1], s.tcache[2], s.tcache[3], s.tilecache, s.l2}
}
