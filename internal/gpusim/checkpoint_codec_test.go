package gpusim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rendelim/internal/api"
	"rendelim/internal/crc"
	"rendelim/internal/wire"
	"rendelim/internal/workload"
)

// The crash-recovery contract: a checkpoint that crosses a process boundary
// (bytes → file → bytes, with no shared memory) must restore a fresh
// simulator so exactly that the continued run is byte-identical — per-frame
// stats and final pixels — to one that never stopped. The fresh simulator
// here stands in for the restarted process: it shares nothing with the one
// that took the checkpoint except the trace and config, which is all a
// recovering resvc has.
func TestCheckpointCodecRoundTrip(t *testing.T) {
	const k = 3
	for _, in := range checkpointInputs(t, "ccs", workload.Params{Width: 96, Height: 64, Frames: 8, Seed: 1}) {
		for _, tech := range []Technique{Baseline, RE, TE, Memo} {
			t.Run(in.prefix+tech.String(), func(t *testing.T) {
				cfg := DefaultConfig()
				cfg.Technique = tech
				tr := in.build()
				ref, cp, refStats := runToCheckpoint(t, tr, cfg, k)

				path := filepath.Join(t.TempDir(), "ckpt")
				if err := os.WriteFile(path, cp, 0o600); err != nil {
					t.Fatal(err)
				}
				blob, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}

				// The "restarted process": a simulator built from scratch.
				res, err := New(in.build(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := res.Resume(blob); err != nil {
					t.Fatalf("Resume(blob read back): %v", err)
				}
				if res.Frame() != k {
					t.Fatalf("resumed frame = %d, want %d", res.Frame(), k)
				}
				checkTail(t, res, tr, k, refStats, ref.FrameBufferSnapshot())
				if got, want := res.FrameBufferCRC(), ref.FrameBufferCRC(); got != want {
					t.Fatalf("framebuffer CRC after resume = %08x, want %08x", got, want)
				}
			})
		}
	}
}

// An unknown version tag must be rejected outright: decoding a future blob
// with this version's field layout would corrupt a recovery silently, and an
// older blob still carries what a later version dropped (v1 the program and
// texture tables, v2 the duplicated RE state, v3 the activity counters and
// per-frame scratch), so recovery must restart that job from frame 0
// instead.
func TestCheckpointCodecVersionRejected(t *testing.T) {
	blob := testCheckpointBlob(t, RE)
	for _, v := range []uint16{1, 2, 3, ckptVersion + 1} {
		// Overwrite the version field (right after the 4-byte magic) and
		// re-seal the CRC so only the version differs from a valid blob.
		mut := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint16(mut[len(ckptMagic):], v)
		if err := testCheckpointSim(t, RE).Resume(reseal(mut)); !errors.Is(err, ErrCheckpointFormat) {
			t.Fatalf("version %d resumed: err = %v, want ErrCheckpointFormat", v, err)
		}
	}
}

func TestCheckpointCodecRejectsDamage(t *testing.T) {
	blob := testCheckpointBlob(t, RE)
	sim := testCheckpointSim(t, RE)

	t.Run("bad magic", func(t *testing.T) {
		mut := append([]byte(nil), blob...)
		mut[0] ^= 0xff
		if err := sim.Resume(mut); !errors.Is(err, ErrCheckpointFormat) {
			t.Fatalf("err = %v, want ErrCheckpointFormat", err)
		}
	})
	t.Run("bit flip", func(t *testing.T) {
		mut := append([]byte(nil), blob...)
		mut[len(mut)/2] ^= 0x10
		if err := sim.Resume(mut); !errors.Is(err, ErrCheckpointFormat) {
			t.Fatalf("err = %v, want ErrCheckpointFormat", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if err := sim.Resume(blob[:len(blob)*2/3]); !errors.Is(err, ErrCheckpointFormat) {
			t.Fatalf("err = %v, want ErrCheckpointFormat", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if err := sim.Resume(nil); !errors.Is(err, ErrCheckpointFormat) {
			t.Fatalf("err = %v, want ErrCheckpointFormat", err)
		}
	})
}

// A checkpoint from one trace must not restore a simulator built over a
// different one.
func TestCheckpointCodecTraceMismatch(t *testing.T) {
	blob := testCheckpointBlob(t, RE)
	b, err := workload.ByAlias("ccs")
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(b.Build(workload.Params{Width: 64, Height: 48, Frames: 3, Seed: 9}), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Resume(blob); err == nil {
		t.Fatal("Resume accepted a checkpoint from a different trace")
	}
}

// The checkpoint carries no program or texture bytes: under RE its encoded
// length depends only on the screen and the cache geometry, never on the
// workload's shaders or textures.
func TestCheckpointLengthIndependentOfWorkload(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Technique = RE
	want := -1
	for _, b := range workload.Suite() {
		sim, err := New(b.Build(workload.Params{Width: 128, Height: 96, Frames: 2, Seed: 1}), cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim.RunFrame(&sim.trace.Frames[0])
		n := len(sim.Checkpoint())
		if want < 0 {
			want = n
		}
		if n != want {
			t.Errorf("%s: RE checkpoint is %d bytes, want %d like every other workload", b.Alias, n, want)
		}
	}
}

// A checkpoint holds only what a later frame reads. Frame statistics are
// in-frame differences of the activity counters, and BeginFrame resets the
// per-frame scratch, so changing any of them at a frame boundary must leave
// the blob's bytes as they were.
func TestCheckpointOmitsCountersAndScratch(t *testing.T) {
	sim := testCheckpointSim(t, RE)
	sim.RunFrame(&sim.trace.Frames[0])
	sim.RunFrame(&sim.trace.Frames[1])
	for _, tc := range []struct {
		name   string
		change func()
	}{
		{"DRAM counters", func() { sim.dram.Stats.RowMisses++ }},
		{"cache counters", func() {
			for _, c := range sim.checkpointCaches() {
				c.Stats.Hits++
			}
		}},
		{"Signature Unit stats", func() { sim.su.Stats.StallCycles++ }},
		{"Signature Buffer access counts", func() {
			sim.su.Buffer().Reads++
			sim.teBuf.Writes++
		}},
		{"VS counts", func() { sim.vs.Counts.Instructions++ }},
		// A constants block moves the CRC counters, the constants register
		// and the bitmap.
		{"Signature Unit scratch", func() { sim.su.SetConstants([]byte{1}) }},
		{"building set", func() { sim.su.Buffer().Store(0, 7) }},
		{"upload flag", func() { sim.state.UploadsThisFrame = true }},
	} {
		want := sim.Checkpoint()
		tc.change()
		if !bytes.Equal(sim.Checkpoint(), want) {
			t.Errorf("changing the %s changed the checkpoint", tc.name)
		}
	}
}

// ckptHeaderLen is the length of the header Resume checks before it writes
// anything: magic, version, frame, width, height, technique and trace
// identity.
const ckptHeaderLen = len(ckptMagic) + 2 + 3*8 + 1 + 4

// A blob that passes its CRC but does not fit the simulator must be
// rejected with ErrCheckpointFormat, never panic in a state reader or read a
// short copy. Each case overwrites one count or index and re-seals the
// blob; the error must name that field by its offset and the value the
// simulator needs. A frame outside the trace is a header rejection, so it
// must leave the simulator untouched.
func TestResumeRejectsMalformedCheckpoint(t *testing.T) {
	src := testCheckpointSim(t, RE)
	src.RunFrame(&src.trace.Frames[0])
	src.RunFrame(&src.trace.Frames[1])
	blob := src.Checkpoint()

	// Where each component's state starts, from its AppendState length.
	at := ckptHeaderLen
	section := func(state []byte) int {
		off := at
		at += len(state)
		return off
	}
	fbOff := section(src.fbuf.AppendState(nil))
	section(src.state.AppendState(nil))
	reOff := section(src.su.Buffer().AppendState(nil))
	teOff := section(src.teBuf.AppendState(nil))
	memoOff := section(src.memo.appendPrev(nil))
	dramOff := section(src.dram.AppendState(nil))
	cachesOff := at
	caches := src.checkpointCaches()
	cache3Off := cachesOff + 4
	for _, c := range caches[:3] {
		cache3Off += len(c.AppendState(nil))
	}

	tiles, pixels := src.NumTiles(), src.trace.Width*src.trace.Height
	// A signature buffer holds two length-prefixed signature sets, then
	// two validity sets, then the parity.
	sigSet, validSet := 4+4*tiles, 4+tiles
	front := int(binary.LittleEndian.Uint64(blob[fbOff:]))
	pixelsOff := [2]int{fbOff + 8, fbOff + 8 + 4 + 4*pixels}
	lines := caches[3].Config().Sets() * caches[3].Config().Ways
	banks := src.cfg.DRAM.Channels * src.cfg.DRAM.BanksPerChannel

	type damage struct {
		name string
		off  int
		i64  bool // the field is an i64; otherwise a u32 count
		val  int64
		want string // what the error must name
	}
	count := func(name string, off, val, want int) damage {
		return damage{name, off, false, int64(val), fmt.Sprintf("length %d at offset %d, want %d", val, off, want)}
	}
	index := func(name string, off int, val int64) damage {
		return damage{name, off, true, val, fmt.Sprintf("index %d at offset %d outside [0, 2)", val, off)}
	}
	frame := func(name string, val int64) damage {
		return damage{name, len(ckptMagic) + 2, true, val,
			fmt.Sprintf("frame %d outside a %d-frame trace", val, len(src.trace.Frames))}
	}
	for _, tc := range []damage{
		count("short back buffer", pixelsOff[1-front], 10, pixels),
		count("short front buffer", pixelsOff[front], 10, pixels),
		index("front index", fbOff, 2),
		frame("frame past trace end", 99),
		frame("negative frame", -1),
		count("short RE baseline", reOff+sigSet, 0, tiles),
		count("short RE validity", reOff+2*sigSet, 3, tiles),
		index("RE parity", reOff+2*sigSet+2*validSet, 7),
		count("short TE buffer", teOff+sigSet, 2, tiles),
		count("short memo tiles", memoOff, 1, tiles),
		count("short cache lines", cache3Off, 5, lines),
		count("missing cache", cachesOff, 2, len(caches)),
		count("short DRAM banks", dramOff, 1, banks),
		count("short skip counters", len(blob)-4-sigSet, 4, tiles),
	} {
		t.Run(tc.name, func(t *testing.T) {
			mut := append([]byte(nil), blob...)
			if tc.i64 {
				binary.LittleEndian.PutUint64(mut[tc.off:], uint64(tc.val))
			} else {
				binary.LittleEndian.PutUint32(mut[tc.off:], uint32(tc.val))
			}
			sim := testCheckpointSim(t, RE)
			before := sim.Checkpoint()
			err := sim.Resume(reseal(mut))
			if !errors.Is(err, ErrCheckpointFormat) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Resume: err = %v, want ErrCheckpointFormat naming %q", err, tc.want)
			}
			if tc.off < ckptHeaderLen && !bytes.Equal(sim.Checkpoint(), before) {
				t.Fatal("rejected Resume modified the simulator")
			}
		})
	}

	// A binding outside the rebuilt tables. Frame 1 of drawFirstTrace draws
	// with the bindings frame 0 left, so RunFrame would index the tables
	// with the id the blob carries; Resume must reject it first. An intact
	// blob resumes and runs that frame, even where the tables are empty and
	// the state holds the reset-time binding, as a fresh run's does.
	for _, tc := range []struct {
		name  string
		build func() *api.Trace
		off   int // pipeline byte set to 200 (VS, FS, then Tex[0..3]); -1 for none
		want  string
	}{
		{"intact bindings", drawFirstTrace, -1, ""},
		{"reset bindings, empty tables", clearOnlyTrace, -1, ""},
		{"bound VS", drawFirstTrace, 0, "bound program 200 outside the 3-program table"},
		{"bound FS", drawFirstTrace, 1, "bound program 200 outside the 3-program table"},
		{"bound Tex[0]", drawFirstTrace, 2, "bound texture 200 outside the 1-texture table"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			newSim := func() *Simulator {
				sim, err := New(tc.build(), DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				return sim
			}
			src := newSim()
			src.RunFrame(&src.trace.Frames[0])
			mut := src.Checkpoint()
			if tc.off >= 0 {
				mut[ckptHeaderLen+len(src.fbuf.AppendState(nil))+tc.off] = 200
			}
			sim := newSim()
			err := sim.Resume(reseal(mut))
			if tc.want == "" {
				if err != nil {
					t.Fatalf("Resume: %v", err)
				}
				sim.RunFrame(&sim.trace.Frames[1])
				return
			}
			if !errors.Is(err, ErrCheckpointFormat) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Resume: err = %v, want ErrCheckpointFormat naming %q", err, tc.want)
			}
		})
	}
}

// drawFirstTrace is unsetTrace with frame 1 cut down to its first draw, so
// that frame draws before it binds anything.
func drawFirstTrace() *api.Trace {
	tr := unsetTrace()
	tr.Frames[1].Commands = []api.Command{tr.Frames[1].Commands[3]}
	return tr
}

// clearOnlyTrace registers no program or texture and draws nothing: its
// simulator's tables stay empty, and its API state keeps the reset-time
// binding.
func clearOnlyTrace() *api.Trace {
	return &api.Trace{Name: "clear-only", Width: 32, Height: 32, Frames: make([]api.Frame, 2)}
}

// FuzzResumeCheckpoint: whatever bytes arrive, Resume onto a fresh
// simulator of the technique the header names succeeds, or fails with
// ErrCheckpointFormat or a trace mismatch — it never panics, and after a
// successful Resume neither does the next frame. Each input's CRC is
// re-sealed first, so mutations reach the header checks and the state
// readers instead of stopping at the seal. There is one intact seed per
// technique: only a Memo blob holds baseline tables, and only a TE blob
// valid TE signatures.
func FuzzResumeCheckpoint(f *testing.F) {
	blob := testCheckpointBlob(f, RE)
	f.Add(blob)
	f.Add(blob[:len(blob)*2/3])
	f.Add(blob[:len(ckptMagic)+2+4])
	f.Add([]byte{})
	for _, off := range []int{0, len(ckptMagic), len(blob) / 2, len(blob) - 5} {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x10
		f.Add(mut)
	}
	// Taken after one frame: on ccs every fragment of the second frame
	// reuses the first's colours, so after two the Memo baselines are empty.
	for _, tech := range []Technique{Baseline, TE, Memo} {
		sim := testCheckpointSim(f, tech)
		sim.RunFrame(&sim.trace.Frames[0])
		f.Add(sim.Checkpoint())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		tech := RE // the technique byte follows magic, version, frame and size
		if off := len(ckptMagic) + 2 + 3*8; len(b) > off && Technique(b[off]) <= Memo {
			tech = Technique(b[off])
		}
		sim := testCheckpointSim(t, tech)
		err := sim.Resume(reseal(b))
		if err != nil && !errors.Is(err, ErrCheckpointFormat) && !strings.Contains(err.Error(), "checkpoint mismatch") {
			t.Fatalf("Resume error is neither ErrCheckpointFormat nor a trace mismatch: %v", err)
		}
		if err == nil && sim.Frame() < len(sim.trace.Frames) {
			sim.RunFrame(&sim.trace.Frames[sim.Frame()])
		}
	})
}

// reseal replaces b's trailing CRC with the checksum of everything before
// it, as Checkpoint would have written it.
func reseal(b []byte) []byte {
	if len(b) < 4 {
		return b
	}
	body := b[:len(b)-4]
	return wire.AppendU32(body[:len(body):len(body)], crc.Checksum(body))
}

// testCheckpointSim builds a fresh simulator of tech over four frames of
// the suite's ccs workload — the trace and config testCheckpointBlob
// encodes.
func testCheckpointSim(tb testing.TB, tech Technique) *Simulator {
	tb.Helper()
	b, err := workload.ByAlias("ccs")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Technique = tech
	sim, err := New(b.Build(workload.Params{Width: 96, Height: 64, Frames: 4, Seed: 1}), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return sim
}

// testCheckpointBlob runs two frames of testCheckpointSim and returns the
// frame-2 checkpoint.
func testCheckpointBlob(tb testing.TB, tech Technique) []byte {
	tb.Helper()
	sim := testCheckpointSim(tb, tech)
	sim.RunFrame(&sim.trace.Frames[0])
	sim.RunFrame(&sim.trace.Frames[1])
	return sim.Checkpoint()
}
