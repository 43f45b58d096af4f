// Command rebench records the repository benchmark into the performance
// trajectory. It runs perfbench (bash perfbench/run.sh) for every workload
// over seeds 1..N, refuses any run whose output checks fail, and writes
// BENCH_<n>.json: each end-to-end metric's median, quartiles and sample
// count over the untraced runs, one traced run's per-layer metrics, and
// each batch run's simulated totals.
//
// Usage, from the repository root (run.sh builds the tree it sits in):
//
//	rebench [-out results] [-seeds 10] [-seconds 20]
//	rebench -compare old.json new.json
//
// The second form diffs two reports. Simulated totals repeat exactly for a
// seed, so a difference at a seed both reports ran is a behaviour change:
// it is printed field by field and fails the compare. A timing never fails
// it: each end-to-end metric prints as old median [q1, q3] → new median,
// marked when the median moved by more than the old interquartile range.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
)

// schema names the report format; -compare refuses any other.
const schema = "rebench/2"

// workloads are the workloads BENCHMARK.json declares, in its order.
var workloads = []string{"render", "eliminate", "service-cold", "service-hot"}

// Report is the BENCH_<n>.json document. The provenance fields come from
// perfbench's record line.
type Report struct {
	Schema     string               `json:"schema"`
	Revision   string               `json:"revision"`
	GoVersion  string               `json:"go_version"`
	Nproc      int                  `json:"nproc"`
	GOMAXPROCS int                  `json:"gomaxprocs"`
	Seconds    int                  `json:"seconds"`
	Seeds      []int                `json:"seeds"`
	Workloads  map[string]*Workload `json:"workloads"`
}

// Workload is one workload's part of the report.
type Workload struct {
	Metrics  map[string]Spread    `json:"metrics"`       // end-to-end, over the untraced runs
	PerLayer map[string]float64   `json:"per_layer"`     // from the traced run at seed 1
	Sim      map[string]simTotals `json:"sim,omitempty"` // seed → one pass's totals (batch workloads)
}

// simTotals are one pass's simulated totals as perfbench printed them; the
// numbers stay literal so that comparing them is exact.
type simTotals map[string]json.Number

// Spread summarizes one metric's samples.
type Spread struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// runFunc runs perfbench once and returns its standard output.
type runFunc func(workload string, seed, seconds int, traced bool) ([]byte, error)

// perfOut is what rebench reads of one perfbench run: the record line
// (provenance and, for batch workloads, the simulated totals) and the
// result line.
type perfOut struct {
	Record struct {
		Revision   string    `json:"revision"`
		GoVersion  string    `json:"go_version"`
		Nproc      int       `json:"nproc"`
		GOMAXPROCS int       `json:"gomaxprocs"`
		Sim        simTotals `json:"sim_totals_per_pass"`
	} `json:"record"`
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout, perfbench); err != nil {
		fmt.Fprintln(os.Stderr, "rebench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer, perf runFunc) error {
	fs := flag.NewFlagSet("rebench", flag.ContinueOnError)
	out := fs.String("out", "results", "output directory for BENCH_<n>.json")
	seeds := fs.Int("seeds", 10, "run every workload at seeds 1..N")
	seconds := fs.Int("seconds", 20, "measured seconds of each perfbench run")
	compare := fs.Bool("compare", false, "compare two reports: -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs exactly two report paths, got %d", fs.NArg())
		}
		return compareReports(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seeds < 1 || *seconds < 1 {
		return fmt.Errorf("-seeds %d -seconds %d: want at least 1 each", *seeds, *seconds)
	}

	rep, err := record(stdout, perf, *seeds, *seconds)
	if err != nil {
		return err
	}
	raw, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	path, err := nextBenchPath(*out)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(raw, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", path)
	return nil
}

// record runs every workload untraced at seeds 1..seeds, then once traced
// at seed 1, and folds the runs into a report. The first failed run ends
// the recording.
func record(stdout io.Writer, perf runFunc, seeds, seconds int) (*Report, error) {
	rep := &Report{Schema: schema, Seconds: seconds, Workloads: map[string]*Workload{}}
	samples := map[string]map[string][]float64{} // workload → metric → values
	units := map[string]string{}
	for seed := 1; seed <= seeds; seed++ {
		rep.Seeds = append(rep.Seeds, seed)
		for _, w := range workloads {
			po, err := runOnce(perf, w, seed, seconds, false)
			if err != nil {
				return nil, err
			}
			if rep.Revision == "" {
				r := po.Record
				rep.Revision, rep.GoVersion, rep.Nproc, rep.GOMAXPROCS = r.Revision, r.GoVersion, r.Nproc, r.GOMAXPROCS
			}
			if samples[w] == nil {
				samples[w] = map[string][]float64{}
				rep.Workloads[w] = &Workload{}
			}
			for name, m := range po.Metrics {
				samples[w][name] = append(samples[w][name], m.Value)
				units[name] = m.Unit
			}
			if po.Record.Sim != nil {
				wl := rep.Workloads[w]
				if wl.Sim == nil {
					wl.Sim = map[string]simTotals{}
				}
				wl.Sim[strconv.Itoa(seed)] = po.Record.Sim
			}
			fmt.Fprintf(stdout, "%-12s seed %2d  %8.2f frames/s  %9.2f requests/s  %d checks ok\n", w, seed,
				po.Metrics["frames_per_s"].Value, po.Metrics["requests_per_s"].Value, po.Attempted)
		}
	}
	for _, w := range workloads {
		po, err := runOnce(perf, w, 1, seconds, true)
		if err != nil {
			return nil, err
		}
		wl := rep.Workloads[w]
		wl.PerLayer = make(map[string]float64, len(po.Metrics))
		for name, m := range po.Metrics {
			wl.PerLayer[name] = m.Value
		}
		wl.Metrics = make(map[string]Spread, len(samples[w]))
		for name, vs := range samples[w] {
			wl.Metrics[name] = spread(units[name], vs)
		}
		fmt.Fprintf(stdout, "%-12s seed  1  traced  %d checks ok\n", w, po.Attempted)
	}
	return rep, nil
}

// runOnce runs perfbench once and reads its last two lines. A run that
// fails, prints no result line or fails an output check is an error.
func runOnce(perf runFunc, w string, seed, seconds int, traced bool) (*perfOut, error) {
	name := fmt.Sprintf("%s seed %d", w, seed)
	if traced {
		name += " traced"
	}
	raw, err := perf(w, seed, seconds, traced)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	lines := bytes.Split(bytes.TrimSpace(raw), []byte("\n"))
	var po perfOut
	if len(lines) < 2 || json.Unmarshal(lines[len(lines)-2], &po) != nil ||
		json.Unmarshal(lines[len(lines)-1], &po) != nil || po.Metrics == nil {
		return nil, fmt.Errorf("%s: no record and result line in the output", name)
	}
	if !po.Correct {
		return nil, fmt.Errorf("%s: %d of %d output checks failed", name, po.Failed, po.Attempted)
	}
	return &po, nil
}

// perfbench runs perfbench/run.sh once from the current directory, which
// must be the repository root. Its standard error — the build and any
// failed check — passes through.
func perfbench(workload string, seed, seconds int, traced bool) ([]byte, error) {
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command("bash", "perfbench/run.sh", "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", trace)
	cmd.Stderr = os.Stderr
	return cmd.Output()
}

// spread summarizes vs: the median and quartiles, each interpolated
// linearly between the two closest ranks.
func spread(unit string, vs []float64) Spread {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 == len(s) {
			return s[i]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return Spread{Unit: unit, Median: q(0.5), Q1: q(0.25), Q3: q(0.75), N: len(s)}
}

// nextBenchPath picks BENCH_<n>.json with n one past the highest existing
// index in dir (created if missing), so the perf trajectory accumulates.
func nextBenchPath(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	max := 0
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "BENCH_%d.json", &n); err == nil && n > max {
			max = n
		}
	}
	return filepath.Join(dir, fmt.Sprintf("BENCH_%d.json", max+1)), nil
}
