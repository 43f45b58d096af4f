// Command perfbench is the repository benchmark. It runs one named workload
// for a fixed time, with inputs made from a seed, checks every output, and
// prints one JSON object as the last line of standard output: the
// end-to-end metrics from an untraced run (-trace 0) or the per-layer
// metrics from a traced run (-trace 1). The line before it is a provenance
// record (host, toolchain, source revision, sizes and sample counts).
//
// run.sh builds this command and cmd/resvc from the same tree and runs it
// from the repository root:
//
//	bash perfbench/run.sh --workload render --seed 1 --seconds 20 --trace 0
//
// Workloads: render and eliminate drive gpusim in process; service-cold and
// service-hot drive a three-node resvc ring over HTTP. README.md defines
// every metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rendelim/internal/stats"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics of an untraced run. Every workload reports each
// one; README.md gives the per-workload definition.
var endToEnd = []metricDef{
	{"frames_per_s", "frames/s"},
	{"requests_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"setup_s", "s"},
	{"max_rss_mb", "MiB"},
	{"ok_ratio", "ratio"},
}

// perLayer are the metrics of a traced run. A layer a workload bypasses
// reports 0.
var perLayer = []metricDef{
	{"workload.build_ms", "ms"},
	{"gpusim.new_ms", "ms"},
	{"gpusim.frame_ms", "ms"},
	{"gpusim.allocs_per_frame", "allocs/frame"},
	{"gpusim.alloc_bytes_per_frame", "B/frame"},
	{"gpusim.fragment_ns_per_frag", "ns/frag"},
	{"gpusim.commit_ns_per_tile", "ns/tile"},
	{"gpusim.flush_ns_per_flush", "ns/flush"},
	{"gpusim.re_check_ns_per_tile", "ns/tile"},
	{"gpusim.tiling_ns_per_tri", "ns/tri"},
	{"gpusim.vertex_ns_per_vertex", "ns/vertex"},
	{"gpusim.fragment_share", "ratio"},
	{"gpusim.commit_share", "ratio"},
	{"gpusim.geometry_share", "ratio"},
	{"gpusim.re_check_share", "ratio"},
	{"gpusim.trace_overhead", "ratio"},
	{"trace.decode_ns_per_byte", "ns/B"},
	{"sim.frames", "frames"},
	{"sim.tiles_rendered", "tiles"},
	{"sim.tiles_skipped", "tiles"},
	{"sim.skip_ratio", "ratio"},
	{"sim.frags_shaded", "frags"},
	{"sim.frags_memo_reused", "frags"},
	{"sim.flushes_skipped", "flushes"},
	{"sim.vertices", "vertices"},
	{"sim.triangles", "triangles"},
	{"sim.cycles", "cycles"},
	{"sim.dram_bytes", "B"},
	{"sim.energy_mj", "mJ"},
	{"jobs.queue_ms_mean", "ms"},
	{"jobs.build_ms_mean", "ms"},
	{"jobs.simulate_ms_mean", "ms"},
	{"jobs.eliminated_ratio", "ratio"},
	{"jobs.frames_simulated", "frames"},
	{"store.wal_appends_per_cold_job", "records/job"},
	{"store.snapshots_per_cold_job", "snapshots/job"},
	{"server.jobs_ms_mean", "ms"},
	{"cluster.forwarded_ratio", "ratio"},
	{"cluster.forward_ms_mean", "ms"},
	{"cluster.readthrough_hit_ratio", "ratio"},
	{"service.errors", "count"},
	{"service.cold_p50_ms", "ms"},
	{"service.cold_p90_ms", "ms"},
	{"service.upload_p50_ms", "ms"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	traced   bool
	root     string // repository root: the tree under test
	work     string // scratch directory for binaries and data dirs
	expected string // when set, write the run's sim totals here (batch only)
}

// report is what a workload hands back: its counts, its metric values and
// the provenance fields it adds to the record line.
type report struct {
	attempted, failed int
	values            map[string]float64
	record            map[string]any
}

func newReport() *report {
	return &report{values: map[string]float64{}, record: map[string]any{}}
}

// check counts one output check; a false ok is a failure, and the first few
// failure messages go to stderr.
func (r *report) check(ok bool, format string, args ...any) {
	r.attempted++
	if !ok {
		r.failed++
		if r.failed <= 20 {
			fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
		}
	}
}

// metricOut is one metric of the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: render, eliminate, service-cold or service-hot")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "repository root (the tree under test)")
	fs.StringVar(&o.work, "work", ".bench_build", "scratch directory holding the resvc binary and run data")
	fs.StringVar(&o.expected, "write-expected", "", "write this run's per-run sim totals to the named expected-totals file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", trace)
	}
	o.traced = trace == 1

	var rep *report
	var err error
	switch o.workload {
	case "render", "eliminate":
		rep, err = runBatch(o)
	case serviceCold, serviceHot:
		rep, err = runService(o)
	default:
		return fmt.Errorf("unknown -workload %q (want render, eliminate, %s or %s)", o.workload, serviceCold, serviceHot)
	}
	if err != nil {
		return err
	}
	return emit(stdout, o, rep)
}

// emit prints the record line and the result line.
func emit(w io.Writer, o options, rep *report) error {
	defs := endToEnd
	if o.traced {
		defs = perLayer
	}
	if rep.attempted > 0 {
		rep.values["ok_ratio"] = 1 - float64(rep.failed)/float64(rep.attempted)
	}
	out := resultLine{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v, ok := rep.values[d.name]
		if !ok && !o.traced {
			return fmt.Errorf("workload %s did not measure end-to-end metric %s", o.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}

	rec := rep.record
	rec["workload"] = o.workload
	rec["seed"] = o.seed
	rec["seconds"] = o.seconds
	rec["traced"] = o.traced
	rec["nproc"] = runtime.NumCPU()
	rec["gomaxprocs"] = runtime.GOMAXPROCS(0)
	rec["go_version"] = runtime.Version()
	rec["revision"] = revision(o.root)
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		return fmt.Errorf("encode record: %w", err)
	}
	if _, err := fmt.Fprintf(w, "%s\n", line); err != nil {
		return err
	}
	line, err = json.Marshal(out)
	if err != nil {
		return fmt.Errorf("encode result: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// revision names the tree under test: the VCS revision stamped into the
// binary when it was built inside a git checkout, or else a digest of the
// Go sources and go.mod files under root.
func revision(root string) string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+modified"
			}
		}
		if rev != "" {
			return "git:" + rev + dirty
		}
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") && name != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// nearestRank is the 1-based rank of the nearest-rank p-quantile (0 < p <=
// 1) of n > 0 samples: the smallest rank with at least p of all samples at
// or below it.
func nearestRank(n int, p float64) int {
	// The epsilon keeps float error in p*n (0.9*100 = 90.00000000000001)
	// from bumping an exact rank up by one.
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	return min(max(rank, 1), n)
}

// percentile returns the nearest-rank p-quantile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), p)-1]
}

// tailSamples is how many samples lie strictly beyond the nearest-rank
// p-quantile; a tail percentile is trustworthy with ten or more of them.
func tailSamples(n int, p float64) int {
	if n == 0 {
		return 0
	}
	return n - nearestRank(n, p)
}

// latency summarizes one latency sample set in milliseconds.
type latency struct {
	Samples int     `json:"samples"`
	P50     float64 `json:"p50_ms"`
	P90     float64 `json:"p90_ms"`
	Beyond  int     `json:"beyond_p90"` // samples beyond p90; below ten the tail is unreliable
}

func summarize(ms []float64) latency {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	return latency{
		Samples: len(s),
		P50:     percentile(s, 0.5),
		P90:     percentile(s, 0.9),
		Beyond:  tailSamples(len(s), 0.9),
	}
}

// typicalLatency summarizes frame times drawn from runs whose typical frame
// costs differ several-fold (the aliases of the matrix). Percentiles of the
// raw pool would fall wherever the gap between two aliases happens to be, so
// each run's samples are first scaled by typical/median(run), where typical
// is the geometric mean of the run medians; the pooled, scaled samples then
// give the percentiles of a typical run's frame time.
func typicalLatency(runs [][]float64) latency {
	meds := make([]float64, len(runs))
	for i, r := range runs {
		meds[i] = median(r)
	}
	typical := stats.GeoMean(meds) // 0 when any run has no positive median
	if typical == 0 {
		return latency{}
	}
	var pool []float64
	for i, r := range runs {
		for _, v := range r {
			pool = append(pool, v*typical/meds[i])
		}
	}
	return summarize(pool)
}

// forEach calls fn(i) for every i in [0, n) from workers goroutines, each
// taking the next index as it finishes one, and returns when all are done.
func forEach(n, workers int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// concurrency is how many simulations or requests the benchmark keeps in
// flight: one per CPU it may use.
func concurrency() int {
	return min(runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// median of vs (the mean of the middle two for an even count).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0 (a layer the run did not exercise).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfMaxRSSMiB is this process's peak resident set size.
func selfMaxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// procPeakRSSMiB reads another process's peak resident set size (VmHWM).
func procPeakRSSMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kib); err != nil {
				return 0, fmt.Errorf("parse VmHWM of pid %d: %w", pid, err)
			}
			return kib / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line")
}
