// Command reexp reproduces every table and figure of the paper's evaluation
// in one run. Each figure prints as a labeled table whose rows mirror the
// paper's bars/series.
//
// Usage:
//
//	reexp [-width 480] [-height 272] [-frames 50] [-seed 1] [-figs all] [-workers N]
//	      [-csv DIR] [-check DIR]
//	      [-tracefile out.trace.json] [-cpuprofile cpu.pprof] [-log-level info]
//
// -figs takes a comma-separated subset of:
//
//	1 2 t1 t2 14a 14b 15a 15b 16 17a 17b overhead hash otq memolut refresh binning subblock
//
// -csv writes each figure (every one but the text tables t1 and t2) as
// DIR/fig<id>.csv. -check compares each regenerated figure with
// DIR/fig<id>.csv byte for byte, names on stderr every file that differs,
// with its first differing row, or is missing, and then exits 1:
//
//	reexp -check results
//
// -tracefile records every distinct simulation of the run (one track per
// (benchmark, technique) pair) as a Chrome trace-event timeline for
// Perfetto/chrome://tracing; -cpuprofile records a Go CPU profile of the
// harness itself.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"time"

	"rendelim/internal/exp"
	"rendelim/internal/gpusim"
	"rendelim/internal/obs"
	"rendelim/internal/stats"
	"rendelim/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "reexp:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("reexp", flag.ContinueOnError)
	width := fs.Int("width", 480, "screen width in pixels")
	height := fs.Int("height", 272, "screen height in pixels")
	frames := fs.Int("frames", 50, "frames per benchmark")
	seed := fs.Int64("seed", 1, "workload seed")
	figs := fs.String("figs", "all", "comma-separated figure list or 'all'")
	csvDir := fs.String("csv", "", "also write each figure as CSV into this directory")
	checkDir := fs.String("check", "", "compare each figure's CSV with the one in this directory byte for byte; exit 1 naming each that differs or is missing")
	workers := fs.Int("workers", 0, "concurrent simulation workers (0 = host CPUs / tile-workers)")
	tileWorkers := fs.Int("tile-workers", 0, "raster-phase goroutines per simulation (0/1 = serial, -1 = one per CPU); never changes results")
	tracefile := fs.String("tracefile", "", "write a Chrome trace-event pipeline timeline to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a Go CPU profile to this file")
	logLevel := fs.String("log-level", "", "log level: debug, info, warn, error (default info; env "+obs.EnvLogLevel+")")
	if err := fs.Parse(args); err != nil {
		return err
	}
	log, err := obs.Setup(*logLevel, "")
	if err != nil {
		return err
	}

	if *cpuprofile != "" {
		pf, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	p := workload.Params{Width: *width, Height: *height, Frames: *frames, Seed: *seed}
	r := exp.NewRunner(p, *workers, *tileWorkers)
	var tracer *obs.Tracer
	if *tracefile != "" {
		tracer = obs.NewTracer()
		r.SetTracer(tracer)
	}

	type figure struct {
		id    string
		table func() *stats.Table
		text  func() string
	}
	all := []figure{
		{id: "t1", text: r.TableI},
		{id: "t2", text: r.TableII},
		{id: "1", table: r.Fig01},
		{id: "2", table: r.Fig02},
		{id: "14a", table: r.Fig14a},
		{id: "14b", table: r.Fig14b},
		{id: "15a", table: r.Fig15a},
		{id: "15b", table: r.Fig15b},
		{id: "16", table: r.Fig16},
		{id: "17a", table: r.Fig17a},
		{id: "17b", table: r.Fig17b},
		{id: "overhead", table: r.Overhead},
		{id: "hash", table: r.HashAblation},
		{id: "otq", table: r.OTQueueAblation},
		{id: "memolut", table: r.MemoLUTAblation},
		{id: "refresh", table: r.RefreshAblation},
		{id: "binning", table: r.BinningAblation},
		{id: "subblock", table: r.SubblockTradeoff},
	}

	want := map[string]bool{}
	if *figs != "all" {
		// Validate in argument order, not map order: with several unknown
		// ids the reported one used to follow randomized map iteration.
		for _, f := range strings.Split(*figs, ",") {
			f = strings.TrimSpace(f)
			want[f] = true
			found := false
			for _, fig := range all {
				if fig.id == f {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("unknown figure %q", f)
			}
		}
	}
	selected := func(id string) bool { return *figs == "all" || want[id] }

	// Warm the shared runs in parallel when the main comparison figures are
	// requested.
	needMain := false
	for _, id := range []string{"1", "2", "14a", "14b", "15a", "15b", "16", "17a", "17b", "overhead"} {
		if selected(id) {
			needMain = true
		}
	}
	start := time.Now()
	if needMain {
		log.Info("running suite", "width", p.Width, "height", p.Height,
			"frames", p.Frames, "workers", *workers)
		r.Prefetch(exp.SuiteAliases(), []gpusim.Technique{gpusim.Baseline, gpusim.RE, gpusim.TE, gpusim.Memo})
	}

	if *csvDir != "" {
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			return err
		}
	}
	var mismatches []string
	checked := 0
	for _, fig := range all {
		if !selected(fig.id) {
			continue
		}
		figStart := time.Now()
		if fig.text != nil {
			fmt.Fprintln(stdout, fig.text())
			log.Info("figure done", "fig", fig.id, "elapsed", time.Since(figStart).Round(time.Millisecond))
			continue
		}
		t := fig.table()
		log.Info("figure done", "fig", fig.id, "elapsed", time.Since(figStart).Round(time.Millisecond))
		t.Fprint(stdout, 3)
		if *csvDir == "" && *checkDir == "" {
			continue
		}
		var csv bytes.Buffer
		if err := t.WriteCSV(&csv); err != nil {
			return err
		}
		name := "fig" + fig.id + ".csv"
		if *csvDir != "" {
			if err := os.WriteFile(filepath.Join(*csvDir, name), csv.Bytes(), 0o644); err != nil {
				return err
			}
		}
		if *checkDir != "" {
			checked++
			msg, err := checkCSV(filepath.Join(*checkDir, name), csv.Bytes())
			if err != nil {
				return err
			}
			if msg != "" {
				mismatches = append(mismatches, msg)
			}
		}
	}
	if tracer != nil {
		if err := tracer.WriteFile(*tracefile); err != nil {
			return err
		}
		log.Info("pipeline trace written", "file", *tracefile, "events", tracer.Len())
	}
	// Report job elimination the way the simulator reports tile elimination:
	// figures re-request the same (benchmark, technique) runs, and the pool's
	// signature cache discards those re-runs before they enter the pipeline.
	m := r.Pool().Metrics()
	log.Info("jobs summary", "submitted", m.Submitted.Load(),
		"eliminated", m.Deduped.Load(),
		"elimination_ratio", fmt.Sprintf("%.3f", m.EliminationRatio()),
		"simulated", m.Completed.Load())
	log.Info("done", "elapsed", time.Since(start).Round(time.Millisecond))
	if len(mismatches) > 0 {
		return fmt.Errorf("%d of %d figures differ from %s:\n%s", len(mismatches), checked, *checkDir, strings.Join(mismatches, "\n"))
	}
	return nil
}

// checkCSV compares a regenerated figure with the committed file at path.
// It returns "" when the two are byte-identical, and otherwise a line that
// names the file and its first differing row (the header is row 1), or says
// the file is missing.
func checkCSV(path string, got []byte) (string, error) {
	want, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return path + ": missing", nil
	}
	if err != nil {
		return "", err
	}
	if bytes.Equal(got, want) {
		return "", nil
	}
	gotRows, wantRows := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	row := 0
	for row < len(gotRows) && row < len(wantRows) && gotRows[row] == wantRows[row] {
		row++
	}
	at := func(rows []string) string {
		if row < len(rows) {
			return fmt.Sprintf("%q", rows[row])
		}
		return "no row"
	}
	return fmt.Sprintf("%s: row %d differs: file has %s, regenerated %s", path, row+1, at(wantRows), at(gotRows)), nil
}
