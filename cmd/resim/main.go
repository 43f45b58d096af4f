// Command resim replays one recorded trace on the simulated GPU under a
// chosen technique and prints the run's headline statistics — the
// single-workload counterpart of reexp.
//
// Usage:
//
//	resim -trace traces/ccs.rdlm [-tech base|re|te|memo] [-v]
//	      [-tracefile out.trace.json] [-cpuprofile cpu.pprof] [-log-level info]
//	      [-timeout 30s]
//
// -tracefile records a per-frame, per-pipeline-stage timeline in Chrome
// trace-event JSON; open it in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. -cpuprofile records a Go CPU profile of the simulator
// itself for `go tool pprof`.
//
// Exit codes:
//
//	0  replay completed
//	1  usage or I/O error
//	3  -timeout expired; the printed statistics cover only the frames that
//	   completed before the deadline
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime/pprof"

	"rendelim/internal/api"
	"rendelim/internal/energy"
	"rendelim/internal/fb"
	"rendelim/internal/gpusim"
	"rendelim/internal/obs"
	"rendelim/internal/trace"
)

// errAborted marks a -timeout partial-result abort: the stats printed cover
// only the completed frames. main maps it to exit code 3 (documented above)
// so scripts can tell "partial results" from hard failures.
var errAborted = errors.New("resim: aborted by timeout")

func main() {
	err := run(os.Args[1:], os.Stdout)
	if err == nil {
		return
	}
	if errors.Is(err, errAborted) {
		os.Exit(3) // partial stats already printed
	}
	fmt.Fprintln(os.Stderr, "resim:", err)
	os.Exit(1)
}

// run is the whole command, factored out of main so tests can drive it.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("resim", flag.ContinueOnError)
	path := fs.String("trace", "", "trace file (required)")
	tech := fs.String("tech", "re", "technique: base, re, te, memo")
	refresh := fs.Int("refresh", 0, "RE periodic refresh interval (0 = off)")
	tileWorkers := fs.Int("tile-workers", 0, "raster-phase goroutines (0/1 = serial, -1 = one per CPU); never changes results")
	timeout := fs.Duration("timeout", 0, "abort the replay after this long (0 = none); partial stats are printed")
	verbose := fs.Bool("v", false, "print per-frame statistics")
	heatmap := fs.String("heatmap", "", "write a PGM skip heat-map to this file (RE only)")
	dump := fs.String("dump", "", "write rendered frames as PNGs into this directory")
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

	if *path == "" {
		fs.Usage()
		return fmt.Errorf("missing -trace")
	}
	f, err := os.Open(*path)
	if err != nil {
		return err
	}
	tr, err := trace.Decode(f)
	f.Close()
	if err != nil {
		return err
	}

	cfg := gpusim.DefaultConfig()
	cfg.RefreshInterval = *refresh
	cfg.TileWorkers = *tileWorkers
	technique, err := gpusim.ParseTechnique(*tech)
	if err != nil {
		return err
	}
	cfg.Technique = technique

	var tracer *obs.Tracer
	if *tracefile != "" {
		tracer = obs.NewTracer()
		cfg.Tracer = tracer
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

	sim, err := gpusim.New(tr, cfg)
	if err != nil {
		return err
	}
	if *dump != "" {
		if err := os.MkdirAll(*dump, 0o755); err != nil {
			return err
		}
	}
	log.Debug("replaying trace", "name", tr.Name, "frames", len(tr.Frames),
		"technique", cfg.Technique.String(), "tracing", *tracefile != "",
		"tile_workers", *tileWorkers)
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	var res gpusim.Result
	if *dump == "" {
		// Cancellation is checked at frame boundaries; on timeout the
		// partial result covers the frames that completed.
		res, err = sim.RunContext(ctx)
	} else {
		// Frame dumping needs the framebuffer between frames, so replay
		// manually with the same frame-boundary cancellation.
		res = gpusim.Result{Technique: cfg.Technique, Name: tr.Name}
		for i := range tr.Frames {
			if err = ctx.Err(); err != nil {
				break
			}
			st := sim.RunFrame(&tr.Frames[i])
			res.Frames = append(res.Frames, st)
			res.Total.Add(st)
			if derr := dumpFrame(*dump, i, sim, tr); derr != nil {
				return derr
			}
		}
	}
	aborted := false
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		aborted = true
		fmt.Fprintf(stdout, "aborted    %v after %d of %d frames\n", err, len(res.Frames), len(tr.Frames))
	} else if err != nil {
		return err
	}
	if *verbose {
		for i, st := range res.Frames {
			fmt.Fprintf(stdout, "frame %3d: cycles=%d (geom %d, raster %d) skipped=%d/%d frags=%d\n",
				i, st.TotalCycles(), st.GeometryCycles, st.RasterCycles,
				st.TilesSkipped, st.TilesTotal, st.FragsShaded)
		}
	}

	t := res.Total
	em := energy.Default()
	eb := em.Compute(t.Activity)
	fmt.Fprintf(stdout, "trace      %s (%dx%d, %d frames)\n", tr.Name, tr.Width, tr.Height, len(tr.Frames))
	fmt.Fprintf(stdout, "technique  %s\n", cfg.Technique)
	fmt.Fprintf(stdout, "cycles     %d (geometry %d, raster %d)\n", t.TotalCycles(), t.GeometryCycles, t.RasterCycles)
	fmt.Fprintf(stdout, "time       %.3f ms @ 400 MHz\n", float64(t.TotalCycles())/400e3)
	fmt.Fprintf(stdout, "tiles      %d total, %d skipped (%.1f%%)\n", t.TilesTotal, t.TilesSkipped, t.SkipFraction()*100)
	fmt.Fprintf(stdout, "fragments  %d shaded, %d memo-reused, %d early-Z killed\n",
		t.FragsShaded, t.FragsMemoReused, t.FragsEarlyZKill)
	fmt.Fprintf(stdout, "flushes    %d done, %d skipped\n", t.FlushesDone, t.FlushesSkipped)
	fmt.Fprintf(stdout, "DRAM       %d bytes (colors %d, texels %d, primitives %d)\n",
		t.TotalTraffic(), t.Traffic[gpusim.TrafficColor],
		t.Traffic[gpusim.TrafficTexel], t.Traffic[gpusim.TrafficPBRead])
	fmt.Fprintf(stdout, "energy     %.3f mJ (GPU %.3f, memory %.3f)\n",
		eb.Total()*1e3, eb.GPU()*1e3, eb.Memory()*1e3)
	fmt.Fprintf(stdout, "avg power  %.1f mW\n", em.AvgPowerWatts(t.Activity)*1e3)

	if *heatmap != "" {
		if err := writeHeatmap(*heatmap, sim, len(tr.Frames)); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "heatmap    %s (bright = often skipped)\n", *heatmap)
	}
	if tracer != nil {
		if err := tracer.WriteFile(*tracefile); err != nil {
			return err
		}
		log.Info("pipeline trace written", slog.String("file", *tracefile),
			slog.Int("events", tracer.Len()))
		fmt.Fprintf(stdout, "trace file %s (%d events; open in Perfetto or chrome://tracing)\n",
			*tracefile, tracer.Len())
	}
	if aborted {
		return errAborted
	}
	return nil
}

// dumpFrame writes the just-displayed frame as PNG.
func dumpFrame(dir string, idx int, sim *gpusim.Simulator, tr *api.Trace) error {
	f, err := os.Create(fmt.Sprintf("%s/frame%03d.png", dir, idx))
	if err != nil {
		return err
	}
	defer f.Close()
	return fb.WritePNG(f, sim.FrameBufferSnapshot(), tr.Width, tr.Height)
}

// writeHeatmap renders the per-tile skip counts as a plain PGM image, one
// pixel per tile, brightness = skip frequency.
func writeHeatmap(path string, sim *gpusim.Simulator, frames int) error {
	counts := sim.SkipCounts()
	tx := sim.TilesX()
	ty := (len(counts) + tx - 1) / tx
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := fmt.Fprintf(f, "P2\n%d %d\n255\n", tx, ty); err != nil {
		return err
	}
	for y := 0; y < ty; y++ {
		for x := 0; x < tx; x++ {
			v := 0
			if i := y*tx + x; i < len(counts) && frames > 0 {
				v = int(counts[i]) * 255 / frames
				if v > 255 {
					v = 255
				}
			}
			if _, err := fmt.Fprintf(f, "%d ", v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(f); err != nil {
			return err
		}
	}
	return nil
}
