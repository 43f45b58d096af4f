package jobs

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"time"

	"rendelim/internal/api"
	"rendelim/internal/fault"
	"rendelim/internal/gpusim"
	"rendelim/internal/trace"
	"rendelim/internal/workload"
)

// checkpointPeriod is the simulate time between two frame-boundary
// checkpoints of one attempt. Only a retry or a process death reads a
// checkpoint, yet each costs a sizeable share of a frame (encoding the
// simulator state, then two fsyncs), so a job that ends within one period
// writes none, and a process death loses at most a period plus a frame.
const checkpointPeriod = time.Second

// runResumable is the pool's built-in executor: like DefaultRun it builds
// the trace and simulates with cancellation honored at frame boundaries, but
// it also threads the pool's fault plan into the simulation and snapshots
// the simulator into the job at the first frame boundary reached at least
// one checkpoint period after the attempt began or after its previous
// checkpoint, never after the last frame. A later attempt of the same job
// (after a transient failure, a contained or worker-level panic, or a
// per-attempt timeout) resumes from the last checkpoint instead of frame 0,
// so each failed attempt re-simulates at most a period plus a frame.
func (p *Pool) runResumable(ctx context.Context, j *Job, observe func(string, time.Duration)) (gpusim.Result, error) {
	buildStart := time.Now()
	tr, err := specTrace(j.spec, p.opts.Fault)
	if err != nil {
		return gpusim.Result{}, err
	}
	cfg := j.spec.config()
	cfg.TileWorkers = p.opts.TileWorkers
	cfg.Fault = p.opts.Fault
	sim, err := gpusim.New(tr, cfg)
	if err != nil {
		return gpusim.Result{}, err
	}
	observe(StageBuild, time.Since(buildStart))

	simStart := time.Now()
	res := gpusim.Result{Technique: cfg.Technique, Name: tr.Name}
	res.Frames = make([]gpusim.Stats, 0, len(tr.Frames))

	// Resume from this job's last checkpoint, replaying the already-counted
	// per-frame stats so the final Result is indistinguishable from a
	// straight run.
	start := 0
	if j.resume != nil && j.resume.cp != nil {
		if rerr := sim.Resume(j.resume.cp); rerr == nil {
			start = j.resume.cp.Frame()
			for _, fs := range j.resume.frames {
				res.Frames = append(res.Frames, fs)
				res.Total.Add(fs)
			}
			p.metrics.Resumed.Add(1)
			if j.resume.recovered {
				// The checkpoint crossed a process restart via the store.
				j.resume.recovered = false
				p.opts.Store.Metrics().JobsResumed.Add(1)
			}
			p.log.Info("job resumed from checkpoint", "id", j.ID, "frame", start)
		} else {
			p.log.Warn("checkpoint rejected; restarting from frame 0", "id", j.ID, "err", rerr)
		}
	}

	lastCkpt := simStart
	for i := start; i < len(tr.Frames); i++ {
		if cerr := ctx.Err(); cerr != nil {
			return res, cerr
		}
		fs := sim.RunFrame(&tr.Frames[i])
		res.Frames = append(res.Frames, fs)
		res.Total.Add(fs)
		p.metrics.FramesSimulated.Add(1)
		// Checkpoint at the boundary once a period has passed — but not
		// after the last frame, where there is nothing left to resume into.
		if i+1 < len(tr.Frames) && time.Since(lastCkpt) >= p.opts.CheckpointPeriod {
			j.resume = &resume{
				cp:     sim.Checkpoint(),
				frames: append([]gpusim.Stats(nil), res.Frames...),
			}
			// Durably persist the boundary so recovery after a process
			// death resumes here, not at frame 0.
			p.persistCheckpoint(j)
			lastCkpt = time.Now()
		}
	}
	res.FBCRC = sim.FrameBufferCRC()
	observe(StageSimulate, time.Since(simStart))
	return res, nil
}

// specTrace resolves spec to its trace: it decodes an upload or builds the
// alias. A nil plan injects nothing.
func specTrace(spec Spec, plan *fault.Plan) (*api.Trace, error) {
	var tr *api.Trace
	switch {
	case len(spec.TraceBin) > 0:
		// Injected decode fault. The Corrupt kind additionally runs a
		// deterministically mangled copy of the upload through the decoder
		// — which must reject or misparse it gracefully, never crash (the
		// fuzz target guards the same property) — before failing the
		// attempt the way a detected checksum mismatch would: transiently,
		// so the retry re-reads the pristine bytes.
		if ferr := plan.Check(fault.SiteTraceDecode); ferr != nil {
			var fe *fault.Error
			if errors.As(ferr, &fe) && fe.Kind == fault.Corrupt {
				_, _ = trace.Decode(bytes.NewReader(fe.Mangle(spec.TraceBin)))
			}
			return nil, Transient(fmt.Errorf("jobs: trace read: %w", ferr))
		}
		var err error
		tr, err = trace.Decode(bytes.NewReader(spec.TraceBin))
		if err != nil {
			return nil, fmt.Errorf("jobs: %w", err)
		}
	default:
		b, err := workload.ByAlias(spec.Alias)
		if err != nil {
			return nil, err
		}
		tr = b.Build(spec.Params)
	}
	return tr, nil
}
