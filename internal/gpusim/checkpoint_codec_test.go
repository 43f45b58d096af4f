package gpusim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"rendelim/internal/crc"
	"rendelim/internal/wire"
	"rendelim/internal/workload"
)

// The crash-recovery contract: a checkpoint that crosses a process boundary
// (encode → bytes → decode, with no shared memory) must restore a fresh
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

				dec, err := DecodeCheckpoint(cp.EncodeBinary())
				if err != nil {
					t.Fatalf("DecodeCheckpoint: %v", err)
				}
				if dec.Frame() != k {
					t.Fatalf("decoded checkpoint frame = %d, want %d", dec.Frame(), k)
				}

				// The "restarted process": a simulator built from scratch.
				res, err := New(in.build(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if err := res.Resume(dec); err != nil {
					t.Fatalf("Resume(decoded): %v", err)
				}
				checkTail(t, res, tr, k, refStats, ref.FrameBufferSnapshot())
				if got, want := res.FrameBufferCRC(), ref.FrameBufferCRC(); got != want {
					t.Fatalf("framebuffer CRC after decoded resume = %08x, want %08x", got, want)
				}
			})
		}
	}
}

// An unknown version tag must be rejected outright: decoding a future blob
// with this version's field layout would corrupt a recovery silently, and a
// v1 blob still carries the program and texture tables v2 dropped, so
// recovery must restart that job from frame 0 instead.
func TestCheckpointCodecVersionRejected(t *testing.T) {
	blob := testCheckpointBlob(t)
	for _, v := range []uint16{1, ckptVersion + 1} {
		// Overwrite the version field (right after the 4-byte magic) and
		// re-seal the CRC so only the version differs from a valid blob.
		mut := append([]byte(nil), blob...)
		binary.LittleEndian.PutUint16(mut[len(ckptMagic):], v)
		if _, err := DecodeCheckpoint(reseal(mut)); !errors.Is(err, ErrCheckpointFormat) {
			t.Fatalf("version %d decoded: err = %v, want ErrCheckpointFormat", v, err)
		}
	}
}

func TestCheckpointCodecRejectsDamage(t *testing.T) {
	blob := testCheckpointBlob(t)

	t.Run("bad magic", func(t *testing.T) {
		mut := append([]byte(nil), blob...)
		mut[0] ^= 0xff
		if _, err := DecodeCheckpoint(mut); !errors.Is(err, ErrCheckpointFormat) {
			t.Fatalf("err = %v, want ErrCheckpointFormat", err)
		}
	})
	t.Run("bit flip", func(t *testing.T) {
		mut := append([]byte(nil), blob...)
		mut[len(mut)/2] ^= 0x10
		if _, err := DecodeCheckpoint(mut); !errors.Is(err, ErrCheckpointFormat) {
			t.Fatalf("err = %v, want ErrCheckpointFormat", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		if _, err := DecodeCheckpoint(blob[:len(blob)*2/3]); !errors.Is(err, ErrCheckpointFormat) {
			t.Fatalf("err = %v, want ErrCheckpointFormat", err)
		}
	})
	t.Run("empty", func(t *testing.T) {
		if _, err := DecodeCheckpoint(nil); !errors.Is(err, ErrCheckpointFormat) {
			t.Fatalf("err = %v, want ErrCheckpointFormat", err)
		}
	})
}

// A decoded checkpoint from one trace must not restore a simulator built
// over a different one.
func TestCheckpointCodecTraceMismatch(t *testing.T) {
	blob := testCheckpointBlob(t)
	cp, err := DecodeCheckpoint(blob)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ByAlias("ccs")
	if err != nil {
		t.Fatal(err)
	}
	other, err := New(b.Build(workload.Params{Width: 64, Height: 48, Frames: 3, Seed: 9}), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Resume(cp); err == nil {
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
		n := len(sim.Checkpoint().EncodeBinary())
		if want < 0 {
			want = n
		}
		if n != want {
			t.Errorf("%s: RE checkpoint is %d bytes, want %d like every other workload", b.Alias, n, want)
		}
	}
}

// A blob that passes its CRC but does not fit the simulator must be
// rejected with ErrCheckpointFormat before Resume writes anything — never
// panic inside a Restore, never restore a short copy.
func TestResumeRejectsMalformedCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(cp *Checkpoint)
	}{
		{"short back buffer", func(cp *Checkpoint) { cp.fbuf.Bufs[1-cp.fbuf.Front] = make([]uint32, 10) }},
		{"short front buffer", func(cp *Checkpoint) { cp.fbuf.Bufs[cp.fbuf.Front] = make([]uint32, 10) }},
		{"front index", func(cp *Checkpoint) { cp.fbuf.Front = 2 }},
		{"frame past trace end", func(cp *Checkpoint) { cp.frameIdx = 99 }},
		{"negative frame", func(cp *Checkpoint) { cp.frameIdx = -1 }},
		{"short RE building set", func(cp *Checkpoint) { cp.re.Unit.Buf.Building = cp.re.Unit.Buf.Building[:1] }},
		{"short RE baseline", func(cp *Checkpoint) { cp.re.Unit.Buf.Prev[1] = nil }},
		{"short RE validity", func(cp *Checkpoint) { cp.re.Unit.Buf.Valid[0] = cp.re.Unit.Buf.Valid[0][:3] }},
		{"RE parity", func(cp *Checkpoint) { cp.re.Unit.Buf.Parity = 7 }},
		{"short RE bitmap", func(cp *Checkpoint) { cp.re.Unit.Bitmap = nil }},
		{"short TE buffer", func(cp *Checkpoint) { cp.teBuf.Prev[0] = cp.teBuf.Prev[0][:2] }},
		{"short memo tiles", func(cp *Checkpoint) { cp.memoPrev = cp.memoPrev[:1] }},
		{"short cache lines", func(cp *Checkpoint) { cp.caches[3].Lines = cp.caches[3].Lines[:5] }},
		{"missing cache", func(cp *Checkpoint) { cp.caches = cp.caches[:2] }},
		{"short DRAM banks", func(cp *Checkpoint) { cp.dram.Banks = cp.dram.Banks[:1] }},
		{"short skip counters", func(cp *Checkpoint) { cp.skipCounts = cp.skipCounts[:4] }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cp, err := DecodeCheckpoint(testCheckpointBlob(t))
			if err != nil {
				t.Fatal(err)
			}
			tc.damage(cp)
			// Re-encoding seals the damage under a valid CRC.
			dec, err := DecodeCheckpoint(cp.EncodeBinary())
			if err != nil {
				t.Fatalf("CRC-valid damaged blob did not decode: %v", err)
			}
			sim := testCheckpointSim(t)
			before := sim.Checkpoint().EncodeBinary()
			if err := sim.Resume(dec); !errors.Is(err, ErrCheckpointFormat) {
				t.Fatalf("Resume: err = %v, want ErrCheckpointFormat", err)
			}
			if !bytes.Equal(sim.Checkpoint().EncodeBinary(), before) {
				t.Fatal("rejected Resume modified the simulator")
			}
		})
	}
}

// FuzzDecodeCheckpoint: whatever bytes arrive, decoding fails with
// ErrCheckpointFormat or yields a checkpoint that resumes onto a fresh
// simulator or is rejected — it never panics. Each input's CRC is re-sealed
// first, so mutations reach the field decoders and Resume's shape checks
// instead of stopping at the seal.
func FuzzDecodeCheckpoint(f *testing.F) {
	blob := testCheckpointBlob(f)
	f.Add(blob)
	f.Add(blob[:len(blob)*2/3])
	f.Add(blob[:len(ckptMagic)+2+4])
	f.Add([]byte{})
	for _, off := range []int{0, len(ckptMagic), len(blob) / 2, len(blob) - 5} {
		mut := append([]byte(nil), blob...)
		mut[off] ^= 0x10
		f.Add(mut)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		cp, err := DecodeCheckpoint(reseal(b))
		if err != nil {
			if !errors.Is(err, ErrCheckpointFormat) {
				t.Fatalf("decode error does not wrap ErrCheckpointFormat: %v", err)
			}
			return
		}
		_ = testCheckpointSim(t).Resume(cp)
	})
}

// reseal replaces b's trailing CRC with the checksum of everything before
// it, as EncodeBinary would have written it.
func reseal(b []byte) []byte {
	if len(b) < 4 {
		return b
	}
	body := b[:len(b)-4]
	return wire.AppendU32(body[:len(body):len(body)], crc.Checksum(body))
}

// testCheckpointSim builds a fresh RE simulator over four frames of the
// suite's ccs workload — the trace and config testCheckpointBlob encodes.
func testCheckpointSim(tb testing.TB) *Simulator {
	tb.Helper()
	b, err := workload.ByAlias("ccs")
	if err != nil {
		tb.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Technique = RE
	sim, err := New(b.Build(workload.Params{Width: 96, Height: 64, Frames: 4, Seed: 1}), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	return sim
}

// testCheckpointBlob runs two frames of testCheckpointSim and returns the
// encoded frame-2 checkpoint.
func testCheckpointBlob(tb testing.TB) []byte {
	tb.Helper()
	sim := testCheckpointSim(tb)
	sim.RunFrame(&sim.trace.Frames[0])
	sim.RunFrame(&sim.trace.Frames[1])
	return sim.Checkpoint().EncodeBinary()
}
