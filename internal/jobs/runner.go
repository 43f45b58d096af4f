package jobs

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"rendelim/internal/api"
	"rendelim/internal/gpusim"
	"rendelim/internal/trace"
	"rendelim/internal/workload"
)

// checkpointPeriod is the simulate time between two frame-boundary
// checkpoints of a recorded job. Only a process death reads a checkpoint,
// yet each costs a sizeable share of a frame (encoding the simulator state,
// then two fsyncs), so a job that ends within one period writes none, and a
// process death loses at most a period plus a frame.
const checkpointPeriod = time.Second

// runResumable is the pool's built-in executor: like DefaultRun it builds
// the trace and simulates with cancellation honored at frame boundaries, but
// it also sets the pool's tile workers, resumes a job recovered from the
// store from its persisted checkpoint, and, for a job whose spec reached
// the store, persists a checkpoint at the first frame boundary reached at
// least one checkpoint period after the run began or after its previous
// checkpoint, never after the last frame.
func (p *Pool) runResumable(ctx context.Context, j *Job, observe func(string, time.Duration)) (gpusim.Result, error) {
	buildStart := time.Now()
	tr, err := specTrace(j.spec)
	if err != nil {
		return gpusim.Result{}, err
	}
	cfg := j.spec.config()
	cfg.TileWorkers = p.opts.TileWorkers
	sim, err := gpusim.New(tr, cfg)
	if err != nil {
		return gpusim.Result{}, err
	}
	observe(StageBuild, time.Since(buildStart))

	simStart := time.Now()
	res := gpusim.Result{Technique: cfg.Technique, Name: tr.Name}
	res.Frames = make([]gpusim.Stats, 0, len(tr.Frames))

	// Resume from the recovered checkpoint, replaying the already-counted
	// per-frame stats so the final Result is indistinguishable from a
	// straight run. A checkpoint that Resume rejects, or whose frame
	// disagrees with its stats, is dropped and the job starts over on a
	// fresh simulator: a rejection past the blob's header may have read
	// part of it into sim.
	start := 0
	if rs := j.resume; rs != nil && len(rs.cp) > 0 {
		rerr := sim.Resume(rs.cp)
		if rerr == nil && sim.Frame() != len(rs.frames) {
			// Resuming would splice the stats onto the wrong frame and
			// publish a result of the wrong length.
			rerr = fmt.Errorf("checkpoint at frame %d disagrees with its %d frames of stats", sim.Frame(), len(rs.frames))
		}
		if rerr == nil {
			start = sim.Frame()
			for _, fs := range rs.frames {
				res.Frames = append(res.Frames, fs)
				res.Total.Add(fs)
			}
			p.opts.Store.Metrics().JobsResumed.Add(1)
			p.log.Info("job resumed from checkpoint", "id", j.ID, "frame", start)
		} else {
			p.log.Warn("checkpoint rejected; restarting from frame 0", "id", j.ID, "err", rerr)
			if sim, err = gpusim.New(tr, cfg); err != nil {
				return gpusim.Result{}, err
			}
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
		if j.recorded && i+1 < len(tr.Frames) && time.Since(lastCkpt) >= p.opts.CheckpointPeriod {
			p.persistCheckpoint(j, res.Frames, sim.Checkpoint())
			lastCkpt = time.Now()
		}
	}
	res.FBCRC = sim.FrameBufferCRC()
	observe(StageSimulate, time.Since(simStart))
	return res, nil
}

// specTrace resolves spec to its trace: it decodes an upload or builds the
// alias.
func specTrace(spec Spec) (*api.Trace, error) {
	if len(spec.TraceBin) > 0 {
		tr, err := trace.Decode(bytes.NewReader(spec.TraceBin))
		if err != nil {
			return nil, fmt.Errorf("jobs: %w", err)
		}
		return tr, nil
	}
	b, err := workload.ByAlias(spec.Alias)
	if err != nil {
		return nil, err
	}
	return b.Build(spec.Params), nil
}
