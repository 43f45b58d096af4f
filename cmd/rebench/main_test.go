package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// fakePerf stands in for perfbench/run.sh. It prints a record line and a
// result line as perfbench does: end-to-end metrics untraced, per-layer
// metrics traced, and simulated totals on the batch workloads' untraced
// record lines. frames_per_s is 10 × seed; the cycles total is 1000 + seed.
// A run whose (workload, seed) is named by wrong reports "correct": false.
type fakePerf struct {
	wrong string // "workload seed", e.g. "eliminate 2"
	calls []string
}

func (f *fakePerf) run(w string, seed, seconds int, traced bool) ([]byte, error) {
	f.calls = append(f.calls, fmt.Sprintf("%s %d %d %v", w, seed, seconds, traced))
	rec := map[string]any{"workload": w, "revision": "git:abc", "go_version": "go1.x", "nproc": 2, "gomaxprocs": 2}
	metrics := map[string]any{}
	if traced {
		metrics["gpusim.commit_ns_per_tile"] = map[string]any{"value": 13000, "unit": "ns/tile"}
	} else {
		metrics["frames_per_s"] = map[string]any{"value": 10 * seed, "unit": "frames/s"}
		metrics["ok_ratio"] = map[string]any{"value": 1, "unit": "ratio"}
		if w == "render" || w == "eliminate" {
			rec["sim_totals_per_pass"] = map[string]any{"frames": 120, "cycles": 1000 + seed, "energy_mj": 34.33}
		}
	}
	correct := fmt.Sprintf("%s %d", w, seed) != f.wrong
	res := map[string]any{"correct": correct, "attempted": 110, "failed": 0, "metrics": metrics}
	if !correct {
		res["failed"] = 30
	}
	var out bytes.Buffer
	for _, line := range []any{map[string]any{"record": rec}, res} {
		raw, err := json.Marshal(line)
		if err != nil {
			return nil, err
		}
		out.Write(append(raw, '\n'))
	}
	return out.Bytes(), nil
}

func readReport(t *testing.T, path string) Report {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRecord(t *testing.T) {
	dir := t.TempDir()
	f := &fakePerf{}
	if err := run([]string{"-out", dir, "-seeds", "3", "-seconds", "2"}, io.Discard, f.run); err != nil {
		t.Fatal(err)
	}
	if want := 3*len(workloads) + len(workloads); len(f.calls) != want {
		t.Fatalf("%d perfbench runs, want %d: %v", len(f.calls), want, f.calls)
	}
	if got := f.calls[len(f.calls)-1]; got != "service-hot 1 2 true" {
		t.Errorf("last run %q, want the traced service-hot run at seed 1", got)
	}
	rep := readReport(t, filepath.Join(dir, "BENCH_1.json"))
	if rep.Schema != schema || rep.Revision != "git:abc" || rep.GoVersion != "go1.x" || rep.Nproc != 2 ||
		rep.GOMAXPROCS != 2 || rep.Seconds != 2 || !reflect.DeepEqual(rep.Seeds, []int{1, 2, 3}) {
		t.Errorf("provenance = %+v", rep)
	}
	if len(rep.Workloads) != len(workloads) {
		t.Fatalf("workloads = %v", sortedKeys(rep.Workloads))
	}
	for _, w := range workloads {
		wl := rep.Workloads[w]
		if got, want := wl.Metrics["frames_per_s"], (Spread{Unit: "frames/s", Median: 20, Q1: 15, Q3: 25, N: 3}); got != want {
			t.Errorf("%s frames_per_s = %+v, want %+v", w, got, want)
		}
		if got := wl.PerLayer["gpusim.commit_ns_per_tile"]; got != 13000 {
			t.Errorf("%s per-layer commit = %v", w, got)
		}
		batch := w == "render" || w == "eliminate"
		if batch != (len(wl.Sim) == 3) {
			t.Errorf("%s sim = %v", w, wl.Sim)
		}
	}
	if got := rep.Workloads["eliminate"].Sim["2"]["cycles"]; got != "1002" {
		t.Errorf("eliminate seed 2 cycles = %q, want 1002", got)
	}

	// A second recording takes the next index.
	if err := run([]string{"-out", dir, "-seeds", "1", "-seconds", "1"}, io.Discard, (&fakePerf{}).run); err != nil {
		t.Fatal(err)
	}
	if rep := readReport(t, filepath.Join(dir, "BENCH_2.json")); !reflect.DeepEqual(rep.Seeds, []int{1}) {
		t.Errorf("second recording seeds = %v", rep.Seeds)
	}
}

// Any failed run ends the recording, and nothing is written.
func TestRecordRefusesFailedRuns(t *testing.T) {
	boom := errors.New("exit status 1")
	for _, tc := range []struct {
		name string
		perf runFunc
		want string
	}{
		{"incorrect", (&fakePerf{wrong: "eliminate 2"}).run, "eliminate seed 2: 30 of 110 output checks failed"},
		{"run error", func(string, int, int, bool) ([]byte, error) { return nil, boom }, "render seed 1: exit status 1"},
		{"no result line", func(w string, seed, s int, tr bool) ([]byte, error) {
			return []byte(`{"record":{"revision":"git:abc"}}` + "\n"), nil
		}, "render seed 1: no record and result line"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			err := run([]string{"-out", dir, "-seeds", "3"}, io.Discard, tc.perf)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want it to contain %q", err, tc.want)
			}
			if tc.name == "run error" && !errors.Is(err, boom) {
				t.Errorf("err = %v does not wrap the run's error", err)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 0 {
				t.Errorf("a failed recording wrote %v", entries)
			}
		})
	}
}

func TestSpread(t *testing.T) {
	got := spread("ms", []float64{7, 1, 10, 4, 2, 9, 3, 8, 6, 5})
	if want := (Spread{Unit: "ms", Median: 5.5, Q1: 3.25, Q3: 7.75, N: 10}); got != want {
		t.Errorf("spread(1..10) = %+v, want %+v", got, want)
	}
	if got, want := spread("ms", []float64{4}), (Spread{Unit: "ms", Median: 4, Q1: 4, Q3: 4, N: 1}); got != want {
		t.Errorf("spread(4) = %+v, want %+v", got, want)
	}
}

// The workload list must follow BENCHMARK.json.
func TestWorkloadsMatchBenchmark(t *testing.T) {
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloads) {
		t.Errorf("BENCHMARK.json workloads %v, rebench runs %v", names, workloads)
	}
}

// writeReport writes rep as a report file, filling the schema when empty.
func writeReport(t *testing.T, dir, name string, rep Report) string {
	t.Helper()
	if rep.Schema == "" {
		rep.Schema = schema
	}
	raw, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	report := func(cycles string, fps float64) Report {
		return Report{Workloads: map[string]*Workload{
			"render": {
				Metrics: map[string]Spread{"frames_per_s": {Unit: "frames/s", Median: fps, Q1: 68, Q3: 72, N: 10}},
				Sim:     map[string]simTotals{"1": {"frames": "120", "cycles": json.Number(cycles)}},
			},
		}}
	}
	old := writeReport(t, dir, "old.json", report("73007539", 70))
	compare := func(paths ...string) (string, error) {
		var out bytes.Buffer
		err := run(append([]string{"-compare"}, paths...), &out, nil)
		return out.String(), err
	}

	if out, err := compare(old, writeReport(t, dir, "same.json", report("73007539", 70))); err != nil {
		t.Errorf("equal reports: %v\n%s", err, out)
	}

	out, err := compare(old, writeReport(t, dir, "sim.json", report("73007540", 70)))
	if err == nil {
		t.Error("a changed simulated total compared clean")
	}
	if !strings.Contains(out, `render seed 1: cycles "73007539" → "73007540"`) {
		t.Errorf("the diff does not name workload, seed and field:\n%s", out)
	}

	out, err = compare(old, writeReport(t, dir, "slow.json", report("73007539", 60)))
	if err != nil {
		t.Errorf("a timing failed the compare: %v", err)
	}
	if !strings.Contains(out, "frames_per_s") || !strings.Contains(out, "moved beyond the old IQR") {
		t.Errorf("a median 10 below an IQR of 4 is not marked:\n%s", out)
	}

	// The committed first trajectory point is rebench/1: refused, not misread.
	if _, err := compare("../../results/BENCH_1.json", old); err == nil || !strings.Contains(err.Error(), `"rebench/1"`) {
		t.Errorf("rebench/1 report: err = %v, want it refused by name", err)
	}

	other := writeReport(t, dir, "other.json", Report{Workloads: map[string]*Workload{"service-hot": {}}})
	if _, err := compare(old, other); err == nil {
		t.Error("disjoint reports compared clean")
	}
	if _, err := compare(old); err == nil {
		t.Error("-compare with one path accepted")
	}
}
