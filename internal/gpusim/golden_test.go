package gpusim

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"rendelim/internal/crc"
	"rendelim/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this tree (only for a declared behaviour or format change)")

// goldenPath holds the exact simulated outcome of the suite at golden scale.
var goldenPath = filepath.Join("testdata", "golden.json")

// goldenFile is the on-disk form of goldenPath. Fields names every Stats
// field in flattening order; each run stores one row of values per frame
// plus the final framebuffer CRC, keyed "alias/configuration".
type goldenFile struct {
	Fields []string             `json:"fields"`
	Runs   map[string]goldenRun `json:"runs"`
}

type goldenRun struct {
	FBCRC  uint32     `json:"fb_crc"`
	Frames [][]uint64 `json:"frames"`
}

// flattenStats appends every numeric field of v (Stats, recursively through
// nested structs and arrays) to vals, and its dotted name to names when
// names is non-nil.
func flattenStats(v reflect.Value, prefix string, names *[]string, vals []uint64) []uint64 {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			name := v.Type().Field(i).Name
			if prefix != "" {
				name = prefix + "." + name
			}
			vals = flattenStats(v.Field(i), name, names, vals)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			vals = flattenStats(v.Index(i), fmt.Sprintf("%s[%d]", prefix, i), names, vals)
		}
	case reflect.Uint64, reflect.Uint32, reflect.Uint, reflect.Int64, reflect.Int:
		if names != nil {
			*names = append(*names, prefix)
		}
		if v.CanUint() {
			vals = append(vals, v.Uint())
		} else {
			vals = append(vals, uint64(v.Int()))
		}
	default:
		panic(fmt.Sprintf("golden: Stats field %s has unsupported kind %v", prefix, v.Kind()))
	}
	return vals
}

// encodeGolden writes one frame per line so a behaviour change reads as a
// line diff.
func encodeGolden(g goldenFile, keys []string) []byte {
	var b bytes.Buffer
	fields, _ := json.Marshal(g.Fields)
	fmt.Fprintf(&b, "{\n\"fields\": %s,\n\"runs\": {\n", fields)
	for i, k := range keys {
		run := g.Runs[k]
		fmt.Fprintf(&b, "%q: {\"fb_crc\": %d, \"frames\": [\n", k, run.FBCRC)
		for j, row := range run.Frames {
			line, _ := json.Marshal(row)
			b.Write(line)
			if j < len(run.Frames)-1 {
				b.WriteByte(',')
			}
			b.WriteByte('\n')
		}
		b.WriteString("]}")
		if i < len(keys)-1 {
			b.WriteByte(',')
		}
		b.WriteByte('\n')
	}
	b.WriteString("}\n}\n")
	return b.Bytes()
}

// goldenConfigs are the configurations every suite alias runs under: the
// four techniques, plus Memo with a 64-entry LUT so the per-tile capacity
// limit, which the default 2048 entries never reach at this scale, is
// pinned too.
func goldenConfigs() map[string]Config {
	cfgs := map[string]Config{}
	for _, tech := range []Technique{Baseline, RE, TE, Memo} {
		cfg := DefaultConfig()
		cfg.Technique = tech
		cfgs[tech.String()] = cfg
	}
	small := cfgs[Memo.String()]
	small.MemoLUTEntries = 64
	cfgs["memo-lut64"] = small
	return cfgs
}

// TestSuiteGolden pins the absolute simulated numbers: every Stats field of
// every frame and the final framebuffer CRC of the whole suite under every
// golden configuration must equal testdata/golden.json. The determinism
// tests compare the code with itself; this one compares it with the
// committed outcome, so a change that moves every run alike still fails
// here. Run with -update only for a declared behaviour change, then move
// ModelFingerprint to the CRC32 the test prints.
func TestSuiteGolden(t *testing.T) {
	params := workload.Params{Width: 96, Height: 64, Frames: 6, Seed: 1}
	cfgs := goldenConfigs()
	names := make([]string, 0, len(cfgs))
	for name := range cfgs {
		names = append(names, name)
	}
	sort.Strings(names)
	got := goldenFile{Runs: map[string]goldenRun{}}
	var keys []string
	for _, b := range workload.Suite() {
		tr := b.Build(params)
		for _, name := range names {
			sim, err := New(tr, cfgs[name])
			if err != nil {
				t.Fatal(err)
			}
			res := sim.Run()
			run := goldenRun{FBCRC: res.FBCRC}
			for i := range res.Frames {
				var fields *[]string
				if got.Fields == nil {
					fields = &got.Fields
				}
				run.Frames = append(run.Frames, flattenStats(reflect.ValueOf(res.Frames[i]), "", fields, nil))
			}
			key := b.Alias + "/" + name
			keys = append(keys, key)
			got.Runs[key] = run
		}
	}

	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, encodeGolden(got, keys), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", goldenPath)
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with go test -run TestSuiteGolden -update)", err)
	}
	// The golden file is the model's behaviour, so its CRC is the model
	// fingerprint every job key signs: moving a simulated number without
	// moving the constant would let stale results be served as fresh.
	if sum := crc.Checksum(data); sum != ModelFingerprint {
		t.Errorf("ModelFingerprint = %#08x, but %s has CRC32 %#08x: set ModelFingerprint to %#08x",
			ModelFingerprint, goldenPath, sum, sum)
	}
	if *update {
		return
	}
	var want goldenFile
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatalf("%s: %v", goldenPath, err)
	}
	if !reflect.DeepEqual(got.Fields, want.Fields) {
		t.Fatalf("Stats fields changed:\n got %v\nwant %v", got.Fields, want.Fields)
	}
	if len(want.Runs) != len(keys) {
		t.Errorf("golden file has %d runs, this suite %d", len(want.Runs), len(keys))
	}
	for _, k := range keys {
		g, w := got.Runs[k], want.Runs[k]
		if len(g.Frames) != len(w.Frames) {
			t.Errorf("%s: %d frames, golden %d", k, len(g.Frames), len(w.Frames))
			continue
		}
		for f := range g.Frames {
			for i, v := range g.Frames[f] {
				if v != w.Frames[f][i] {
					t.Errorf("%s frame %d: %s = %d, golden %d", k, f, got.Fields[i], v, w.Frames[f][i])
				}
			}
		}
		if g.FBCRC != w.FBCRC {
			t.Errorf("%s: framebuffer CRC %08x, golden %08x", k, g.FBCRC, w.FBCRC)
		}
	}
}
