package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"rendelim/internal/crc"
	"rendelim/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from this tree (only for a declared format change)")

// goldenPath pins the encoded bytes of every suite and extra alias.
var goldenPath = filepath.Join("testdata", "golden.json")

// goldenTrace is one alias's encoding: its length and its CRC32, the same
// checksum that forms the trace half of an upload's job key.
type goldenTrace struct {
	Len int    `json:"len"`
	CRC uint32 `json:"crc32"`
}

// TestEncodeGolden pins the trace format across commits: each alias must
// encode to exactly the bytes recorded in testdata/golden.json. The
// determinism test compares two encodes in one process, so only this test
// catches a format or generator drift, which would silently change every
// upload's job key or leave alias keys signing the old generators. Run with
// -update only for a declared format or generator change, then move
// workload.Fingerprint to the CRC32 the test prints.
func TestEncodeGolden(t *testing.T) {
	p := workload.Params{Width: 96, Height: 64, Frames: 3, Seed: 1}
	got := map[string]goldenTrace{}
	for _, b := range append(workload.Suite(), workload.Extras()...) {
		var buf bytes.Buffer
		if err := Encode(&buf, b.Build(p)); err != nil {
			t.Fatalf("%s: encode: %v", b.Alias, err)
		}
		got[b.Alias] = goldenTrace{Len: buf.Len(), CRC: crc.Checksum(buf.Bytes())}
	}

	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with go test -run TestEncodeGolden -update)", err)
	}
	// Alias job keys sign workload.Fingerprint in place of the trace bytes,
	// so it must move whenever a generator's output does.
	if sum := crc.Checksum(data); sum != workload.Fingerprint {
		t.Errorf("workload.Fingerprint = %#08x, but %s has CRC32 %#08x: set workload.Fingerprint to %#08x",
			workload.Fingerprint, goldenPath, sum, sum)
	}
	if *update {
		return
	}
	var want map[string]goldenTrace
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d aliases, this tree %d", len(want), len(got))
	}
	for alias, g := range got {
		if w, ok := want[alias]; !ok {
			t.Errorf("%s: missing from %s", alias, goldenPath)
		} else if g != w {
			t.Errorf("%s: encoded %d bytes, crc32 %08x; golden %d bytes, crc32 %08x", alias, g.Len, g.CRC, w.Len, w.CRC)
		}
	}
}
