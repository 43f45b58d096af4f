package store

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"reflect"
	"testing"

	"rendelim/internal/gpusim"
)

// ablationSpec is a config-bearing job spec, as an ablation run records.
func ablationSpec() JobSpec {
	cfg := gpusim.DefaultConfig()
	cfg.Technique = gpusim.Memo
	cfg.MemoLUTEntries = 512
	cfg.Sig.Scheme = "rot-xor"
	return JobSpec{Alias: "ccs", Width: 96, Height: 64, Frames: 3, Seed: 1, Tech: "memo", Config: &cfg}
}

// flipped returns a copy of raw with byte i XORed by mask.
func flipped(raw []byte, i int, mask byte) []byte {
	raw = bytes.Clone(raw)
	raw[i] ^= mask
	return raw
}

// FuzzOpenStore writes arbitrary bytes as a spec file and a result file.
// Open reads the spec, LoadResult the result: neither may panic,
// LoadResult either misses or returns a result, and the store must stay
// usable: a config-bearing spec recorded after Open comes back, intact,
// from the next Open. Seeds are real files, a flipped result byte, an
// empty result, a CRC-valid spec whose body is not JSON, and two empty
// files.
func FuzzOpenStore(f *testing.F) {
	spec, result, _ := snapshotFiles(f)
	f.Add(spec, result)
	f.Add(spec, flipped(result, len(result)/2, 0x20))
	f.Add(spec, []byte{})
	f.Add(append(snapHeader([]byte("not json")), "not json"...), []byte{})
	f.Add([]byte{}, []byte{})

	f.Fuzz(func(t *testing.T, spec, result []byte) {
		dir := t.TempDir()
		st, err := Open(dir, quietOpts())
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		// Two keys: Open never reads a spec that sits beside a result of
		// its key.
		const specKey, resultKey = "00000001-00000002", "00000003-00000004"
		if err := os.WriteFile(st.specPath(specKey), spec, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.resultPath(resultKey), result, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err = Open(dir, quietOpts())
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if res, ok := st.LoadResult(resultKey); !ok && !reflect.DeepEqual(res, gpusim.Result{}) {
			t.Fatalf("LoadResult missed but returned %+v", res)
		}
		const recorded = "fuzz-recorded"
		want := ablationSpec()
		if err := st.RecordSubmitted(recorded, want); err != nil {
			t.Fatalf("record after Open: %v", err)
		}

		st, err = Open(dir, quietOpts())
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		for _, pj := range st.Pending() {
			if pj.Key == recorded {
				if !reflect.DeepEqual(pj.Spec, want) {
					t.Fatalf("recovered spec %+v, want %+v", pj.Spec, want)
				}
				return
			}
		}
		t.Fatal("spec recorded after Open was not recovered")
	})
}

// snapshotFiles returns a spec, a result and a checkpoint snapshot written
// through the real store.
func snapshotFiles(f *testing.F) (spec, result, checkpoint []byte) {
	f.Helper()
	s, err := Open(f.TempDir(), quietOpts())
	if err != nil {
		f.Fatal(err)
	}
	const key = "dead0001-beef0001"
	if err := s.RecordSubmitted(key, ablationSpec()); err != nil {
		f.Fatal(err)
	}
	// Read the spec before SaveResult, which removes it.
	if spec, err = os.ReadFile(s.specPath(key)); err != nil {
		f.Fatal(err)
	}
	if err := s.SaveResult(key, testResult(2)); err != nil {
		f.Fatal(err)
	}
	if err := s.SaveCheckpoint(key, []gpusim.Stats{{Frames: 1}}, []byte("encoded")); err != nil {
		f.Fatal(err)
	}
	if result, err = os.ReadFile(s.resultPath(key)); err != nil {
		f.Fatal(err)
	}
	if checkpoint, err = os.ReadFile(s.checkpointPath(key)); err != nil {
		f.Fatal(err)
	}
	return spec, result, checkpoint
}

// FuzzParseSnapshot feeds arbitrary bytes to the snapshot envelope parser.
// It must never panic, must accept exactly the inputs whose magic, version
// and CRC hold (checked here with encoding/binary and hash/crc32), and an
// accepted body must re-wrap to the input bytes. Seeds are real snapshots
// and the quarantine tests' damage: a flipped body byte, a flipped last
// byte, plus truncation, a wrong magic and a wrong version.
func FuzzParseSnapshot(f *testing.F) {
	_, result, checkpoint := snapshotFiles(f)
	f.Add(result)
	f.Add(checkpoint)
	f.Add(flipped(result, len(result)/2, 0x20))
	f.Add(flipped(checkpoint, len(checkpoint)-1, 0xff))
	f.Add(flipped(result, 0, 0x01))
	f.Add(flipped(result, 4, 0x03))
	f.Add(result[:snapHdrLen-1])
	f.Add(result[:snapHdrLen])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		body, err := parseSnapshot(raw)
		// The envelope's CRC is the raw CRC-32: zero initial state, no
		// final inversion.
		intact := len(raw) >= 10 && string(raw[:4]) == "RESN" &&
			binary.LittleEndian.Uint16(raw[4:]) == 1 &&
			binary.LittleEndian.Uint32(raw[6:]) == ^crc32.Update(^uint32(0), crc32.IEEETable, raw[10:])
		if (err == nil) != intact {
			t.Fatalf("parseSnapshot(% x): err = %v, but magic, version and CRC hold = %v", raw[:min(len(raw), 16)], err, intact)
		}
		if err == nil && !bytes.Equal(append(snapHeader(body), body...), raw) {
			t.Fatalf("parseSnapshot(% x): body does not re-wrap to the input", raw[:min(len(raw), 16)])
		}
	})
}
