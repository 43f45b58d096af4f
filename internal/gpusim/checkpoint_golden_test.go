package gpusim

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"rendelim/internal/crc"
	"rendelim/internal/workload"
)

// checkpointGoldenPath pins the encoded checkpoint of every suite alias.
var checkpointGoldenPath = filepath.Join("testdata", "checkpoint_golden.json")

// goldenCheckpoint is one run's encoded checkpoint: its length and the
// CRC32 of everything before its trailing seal. (The CRC32 of a sealed blob
// is the same constant for every blob, so it would pin nothing.)
type goldenCheckpoint struct {
	Len int    `json:"len"`
	CRC uint32 `json:"crc32"`
}

// TestCheckpointGolden pins the checkpoint format across commits: every
// suite alias at 96×64, under RE and under Memo, checkpointed after two
// frames, must encode to exactly the bytes recorded in
// testdata/checkpoint_golden.json. The round-trip tests decode what the same
// build encoded, so only this test catches a layout drift that would make a
// restarted daemon misread the checkpoints an older one left on disk. Run
// with -update only for a declared format change, which must also move
// ckptVersion.
func TestCheckpointGolden(t *testing.T) {
	p := workload.Params{Width: 96, Height: 64, Frames: 2, Seed: 1}
	got := map[string]goldenCheckpoint{}
	for _, b := range workload.Suite() {
		tr := b.Build(p)
		for _, tech := range []Technique{RE, Memo} {
			cfg := DefaultConfig()
			cfg.Technique = tech
			sim, err := New(tr, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tr.Frames {
				sim.RunFrame(&tr.Frames[i])
			}
			blob := sim.Checkpoint().EncodeBinary()
			got[b.Alias+"/"+tech.String()] = goldenCheckpoint{Len: len(blob), CRC: crc.Checksum(blob[:len(blob)-4])}
		}
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(checkpointGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", checkpointGoldenPath)
		return
	}

	data, err := os.ReadFile(checkpointGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with go test -run TestCheckpointGolden -update)", err)
	}
	var want map[string]goldenCheckpoint
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", checkpointGoldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d runs, this suite %d", len(want), len(got))
	}
	for run, g := range got {
		if w, ok := want[run]; !ok {
			t.Errorf("%s: missing from %s", run, checkpointGoldenPath)
		} else if g != w {
			t.Errorf("%s: checkpoint is %d bytes, CRC32 %08x; golden %d bytes, %08x", run, g.Len, g.CRC, w.Len, w.CRC)
		}
	}
}
