package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"rendelim/internal/gpusim"
)

// walFile returns the bytes of a WAL holding payloads, written through the
// real appender.
func walFile(f *testing.F, payloads ...[]byte) []byte {
	f.Helper()
	path := filepath.Join(f.TempDir(), walName)
	w, err := openWAL(path, nil, newMetrics(), func([]byte) {})
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.append(p); err != nil {
			f.Fatal(err)
		}
	}
	w.close()
	data, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// ablationSpec is a config-bearing job spec, as an ablation run records.
func ablationSpec() JobSpec {
	cfg := gpusim.DefaultConfig()
	cfg.Technique = gpusim.Memo
	cfg.MemoLUTEntries = 512
	cfg.Sig.Scheme = "rot-xor"
	return JobSpec{Alias: "ccs", Width: 96, Height: 64, Frames: 3, Seed: 1, Tech: "memo", Config: &cfg}
}

// FuzzOpenWAL replays arbitrary bytes as wal.log. Open must never panic,
// and the log must stay usable: a record appended after Open — a
// config-bearing submitted record — is recovered, spec intact, by the next
// Open. Seeds are the damage cases of the WAL tests plus a valid log that
// holds a config-bearing submitted record.
func FuzzOpenWAL(f *testing.F) {
	spec := ablationSpec()
	submitted, err := json.Marshal(Record{Type: RecSubmitted, Key: "00000001-00000002", Spec: &spec})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(walFile(f, submitted, []byte(`{"t":"started","key":"00000001-00000002"}`)))
	f.Add(append(walFile(f, []byte("one"), []byte("two")), 0x40, 0x00, 0x00, 0x00, 0xde, 0xad))
	flipped := walFile(f, []byte("keep-me"), []byte("flip-me"))
	flipped[len(flipped)-2] ^= 0x04
	f.Add(flipped)
	f.Add(append(walFile(f, []byte("good")), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		st, err := Open(dir, quietOpts())
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		const key = "fuzz-appended"
		want := ablationSpec()
		if err := st.RecordSubmitted(key, want); err != nil {
			t.Fatalf("append after Open: %v", err)
		}
		st.Close()

		st2, err := Open(dir, quietOpts())
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer st2.Close()
		for _, pj := range st2.Recovered().Pending {
			if pj.Key == key {
				if !reflect.DeepEqual(pj.Spec, want) {
					t.Fatalf("recovered spec %+v, want %+v", pj.Spec, want)
				}
				return
			}
		}
		t.Fatal("record appended after Open was not recovered")
	})
}

// snapshotFiles returns a result and a checkpoint snapshot written through
// the real store.
func snapshotFiles(f *testing.F) (result, checkpoint []byte) {
	f.Helper()
	s, err := Open(f.TempDir(), quietOpts())
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	const key = "dead0001-beef0001"
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
	return result, checkpoint
}

// FuzzParseSnapshot feeds arbitrary bytes to the snapshot envelope parser.
// It must never panic, must accept exactly the inputs whose magic, version
// and CRC hold (checked here with encoding/binary and hash/crc32), and an
// accepted body must re-wrap to the input bytes. Seeds are real snapshots
// and the quarantine tests' damage: a flipped body byte, a flipped last
// byte, plus truncation, a wrong magic and a wrong version.
func FuzzParseSnapshot(f *testing.F) {
	result, checkpoint := snapshotFiles(f)
	f.Add(result)
	f.Add(checkpoint)
	flip := func(raw []byte, i int, mask byte) []byte {
		raw = bytes.Clone(raw)
		raw[i] ^= mask
		return raw
	}
	f.Add(flip(result, len(result)/2, 0x20))
	f.Add(flip(checkpoint, len(checkpoint)-1, 0xff))
	f.Add(flip(result, 0, 0x01))
	f.Add(flip(result, 4, 0x03))
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
