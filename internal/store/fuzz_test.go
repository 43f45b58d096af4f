package store

import (
	"encoding/json"
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
