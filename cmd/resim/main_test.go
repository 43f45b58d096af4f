package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rendelim/internal/gpusim"
	"rendelim/internal/obs"
	"rendelim/internal/trace"
	"rendelim/internal/workload"
)

func TestWriteHeatmap(t *testing.T) {
	p := workload.Params{Width: 96, Height: 64, Frames: 5, Seed: 1}
	b, err := workload.ByAlias("ccs")
	if err != nil {
		t.Fatal(err)
	}
	tr := b.Build(p)
	cfg := gpusim.DefaultConfig()
	cfg.Technique = gpusim.RE
	sim, err := gpusim.New(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()

	path := filepath.Join(t.TempDir(), "heat.pgm")
	if err := writeHeatmap(path, sim, len(tr.Frames)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.HasPrefix(s, "P2\n6 4\n255\n") {
		t.Fatalf("bad PGM header: %q", s[:20])
	}
	// ccs skips most tiles after warm-up, so some non-zero values exist.
	if !strings.ContainsAny(strings.TrimPrefix(s, "P2\n6 4\n255\n"), "123456789") {
		t.Fatal("heatmap all zero on a redundant workload")
	}
}

// TestRunTracefile is the acceptance check for -tracefile: replaying a
// synthetic scene emits valid Chrome trace-event JSON with at least one
// frame span, nested pipeline-stage spans, and tile-elimination instants.
func TestRunTracefile(t *testing.T) {
	// Encode a synthetic redundant scene to a trace file.
	b, err := workload.ByAlias("ccs")
	if err != nil {
		t.Fatal(err)
	}
	tr := b.Build(workload.Params{Width: 96, Height: 64, Frames: 5, Seed: 1})
	dir := t.TempDir()
	in := filepath.Join(dir, "scene.rdlm")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Encode(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out := filepath.Join(dir, "out.trace.json")
	var stdout bytes.Buffer
	if err := run([]string{"-trace", in, "-tech", "re", "-tracefile", out}, &stdout); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "trace file") {
		t.Errorf("report does not mention the trace file:\n%s", stdout.String())
	}

	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var tf obs.TraceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("%s is not valid Chrome trace JSON: %v", out, err)
	}

	var stack []string
	frames, eliminations := 0, 0
	nested := map[string]bool{}
	lastTS := -1.0
	for i, e := range tf.TraceEvents {
		if e.Ph != "M" {
			if e.TS < lastTS {
				t.Fatalf("event %d: non-monotonic timestamp %v < %v", i, e.TS, lastTS)
			}
			lastTS = e.TS
		}
		switch e.Ph {
		case "B":
			if e.Name == "frame" {
				frames++
			} else if len(stack) > 0 {
				nested[e.Name] = true
			}
			stack = append(stack, e.Name)
		case "E":
			if len(stack) == 0 || stack[len(stack)-1] != e.Name {
				t.Fatalf("event %d: unbalanced E %q (stack %v)", i, e.Name, stack)
			}
			stack = stack[:len(stack)-1]
		case "i":
			if e.Name == "tile-eliminated" {
				eliminations++
			}
		}
	}
	if len(stack) != 0 {
		t.Fatalf("unclosed spans %v", stack)
	}
	if frames < 1 {
		t.Error("no frame spans in trace")
	}
	if eliminations == 0 {
		t.Error("no tile-elimination instant events on a redundant scene")
	}
	for _, stage := range []string{"geometry", "vertex-shading", "tiling", "raster", "re-check", "fragment-shading", "dram-flush"} {
		if !nested[stage] {
			t.Errorf("missing nested stage span %q", stage)
		}
	}
}

// TestRunCPUProfile exercises -cpuprofile end to end.
func TestRunCPUProfile(t *testing.T) {
	b, err := workload.ByAlias("ccs")
	if err != nil {
		t.Fatal(err)
	}
	tr := b.Build(workload.Params{Width: 96, Height: 64, Frames: 2, Seed: 1})
	dir := t.TempDir()
	in := filepath.Join(dir, "scene.rdlm")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Encode(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()

	prof := filepath.Join(dir, "cpu.pprof")
	if err := run([]string{"-trace", in, "-cpuprofile", prof}, io.Discard); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(prof)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Error("empty CPU profile")
	}
}

// encodeScene writes a small synthetic trace to disk and returns its path.
func encodeScene(t *testing.T, frames int) string {
	t.Helper()
	b, err := workload.ByAlias("ccs")
	if err != nil {
		t.Fatal(err)
	}
	tr := b.Build(workload.Params{Width: 96, Height: 64, Frames: frames, Seed: 1})
	in := filepath.Join(t.TempDir(), "scene.rdlm")
	f, err := os.Create(in)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Encode(f, tr); err != nil {
		t.Fatal(err)
	}
	f.Close()
	return in
}

// A -timeout abort must return errAborted (main maps it to exit code 3, the
// documented "partial results" code) after printing the partial stats.
func TestTimeoutAbortReturnsErrAborted(t *testing.T) {
	in := encodeScene(t, 50)
	var stdout bytes.Buffer
	err := run([]string{"-trace", in, "-timeout", "1ns"}, &stdout)
	if !errors.Is(err, errAborted) {
		t.Fatalf("err = %v, want errAborted", err)
	}
	if !strings.Contains(stdout.String(), "aborted") {
		t.Errorf("partial-result banner missing:\n%s", stdout.String())
	}
	// The stats block must still be printed so partial results are usable.
	if !strings.Contains(stdout.String(), "cycles") {
		t.Errorf("partial stats missing:\n%s", stdout.String())
	}
}

// TestRunBadFlags: bad inputs must error, not exit the process.
func TestRunBadFlags(t *testing.T) {
	if err := run([]string{}, io.Discard); err == nil {
		t.Error("missing -trace accepted")
	}
	if err := run([]string{"-trace", "x", "-log-level", "nope"}, io.Discard); err == nil {
		t.Error("bad log level accepted")
	}
	if err := run([]string{"-trace", "/does/not/exist"}, io.Discard); err == nil {
		t.Error("missing file accepted")
	}
}
