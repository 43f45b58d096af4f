package jobs

import (
	"context"
	"errors"
	"fmt"

	"rendelim/internal/gpusim"
	"rendelim/internal/store"
	"rendelim/internal/workload"
)

// This file is the pool's side of the durability layer: translating specs to
// and from their serializable store form, publishing each job's spec,
// checkpoints and result as it moves through the pool, reading a stored
// result when the LRU cache misses (so a key computed by an earlier process,
// or evicted since, is eliminated exactly like a same-process duplicate),
// and — at construction — resubmitting the jobs a previous process left
// interrupted, with their last persisted checkpoint attached.
//
// Persistence is best-effort by design: a failed snapshot write or removal
// (a full disk, an injected store.* fault) degrades durability — that job
// may re-run after a crash — but never the live result or the store's
// integrity, so errors here are logged and counted, not propagated to the
// submitter.

// Store returns the pool's durability layer, nil when the pool is
// memory-only.
func (p *Pool) Store() *store.Store { return p.opts.Store }

// specRecord converts spec to its store form, persisting an uploaded trace
// as a content-addressed blob. ok is false when the blob write failed.
func (p *Pool) specRecord(spec Spec) (store.JobSpec, bool) {
	rec := store.JobSpec{
		Alias:  spec.Alias,
		Width:  spec.Params.Width,
		Height: spec.Params.Height,
		Frames: spec.Params.Frames,
		Seed:   spec.Params.Seed,
		Tech:   spec.Tech.String(),
		Tag:    spec.Tag,
		Config: spec.Config,
	}
	if len(spec.TraceBin) > 0 {
		sum, err := p.opts.Store.SaveTrace(spec.TraceBin)
		if err != nil {
			p.log.Warn("store: trace blob write failed; job not durable", "err", err)
			return store.JobSpec{}, false
		}
		rec.TraceCRC = sum
		rec.Alias = "" // the blob is the identity
	}
	return rec, true
}

// specFromRecord is the inverse of specRecord, reloading a referenced trace
// blob from the store.
func specFromRecord(st *store.Store, rec store.JobSpec) (Spec, error) {
	tech, err := gpusim.ParseTechnique(rec.Tech)
	if err != nil {
		return Spec{}, fmt.Errorf("jobs: recovered spec: %w", err)
	}
	spec := Spec{
		Alias:  rec.Alias,
		Params: workload.Params{Width: rec.Width, Height: rec.Height, Frames: rec.Frames, Seed: rec.Seed},
		Tech:   tech,
		Tag:    rec.Tag,
		Config: rec.Config,
	}
	if rec.TraceCRC != 0 {
		bin, err := st.LoadTrace(rec.TraceCRC)
		if err != nil {
			return Spec{}, fmt.Errorf("jobs: recovered trace blob: %w", err)
		}
		spec.TraceBin = bin
	}
	return spec, nil
}

// recordSubmitted publishes a leader job's spec and marks the job
// recorded. Called between registration and queueing, so the worker that
// picks the job up always sees the final recorded flag.
func (p *Pool) recordSubmitted(j *Job) {
	if p.opts.Store == nil {
		return
	}
	rec, ok := p.specRecord(j.spec)
	if !ok {
		return
	}
	if err := p.opts.Store.RecordSubmitted(j.Key.String(), rec); err != nil {
		p.log.Warn("store: spec write failed; job will not survive a crash", "id", j.ID, "err", err)
		return
	}
	j.recorded = true
}

// persistCheckpoint writes a recorded job's freshly-taken frame-boundary
// checkpoint blob, with the stats of the frames before it, to the store, so
// a restarted process resumes from it.
func (p *Pool) persistCheckpoint(j *Job, frames []gpusim.Stats, blob []byte) {
	if err := p.opts.Store.SaveCheckpoint(j.Key.String(), frames, blob); err != nil {
		p.log.Warn("store: checkpoint write failed; crash recovery falls back to an earlier frame", "id", j.ID, "err", err)
	}
}

// loadResult reads key's stored result, if the pool has a store and the
// store has one. The key signs every input of the result, so serving it is
// exactly as correct as serving a result computed now.
func (p *Pool) loadResult(key Key) (gpusim.Result, bool) {
	if p.opts.Store == nil {
		return gpusim.Result{}, false
	}
	return p.opts.Store.LoadResult(key.String())
}

// persistResult durably saves a completed result, whether or not the
// job's spec landed: the result file alone completes the job, and the next
// LRU miss on its key reads it.
func (p *Pool) persistResult(j *Job, res gpusim.Result) {
	if p.opts.Store == nil {
		return
	}
	if err := p.opts.Store.SaveResult(j.Key.String(), res); err != nil {
		p.log.Warn("store: result write failed; job may re-run after a crash", "id", j.ID, "err", err)
	}
}

// persistFailure closes a recorded job's recovery window after a terminal
// failure — except when the "failure" is the pool itself going away
// (shutdown cancellation), which is precisely the interruption recovery
// exists for.
func (p *Pool) persistFailure(j *Job, err error) {
	if !j.recorded || errors.Is(err, context.Canceled) || errors.Is(err, ErrClosed) {
		return
	}
	if werr := p.opts.Store.RecordFailed(j.Key.String()); werr != nil {
		p.log.Warn("store: spec removal failed; job may re-run after a crash", "id", j.ID, "err", werr)
	}
}

// recoverFromStore resubmits the interrupted jobs the store found, oldest
// first, each with its last persisted checkpoint. Called from New after
// workers have started.
func (p *Pool) recoverFromStore() {
	st := p.opts.Store
	for _, pj := range st.Pending() {
		spec, err := specFromRecord(st, pj.Spec)
		if err != nil {
			p.log.Warn("store: interrupted job not recoverable; dropped", "key", pj.Key, "err", err)
			continue
		}
		if got := spec.Key().String(); got != pj.Key {
			p.log.Warn("store: recovered spec signature mismatch; dropped", "key", pj.Key, "resigned", got)
			continue
		}
		// The runner checks the checkpoint, if any, when it resumes: a bad
		// blob restarts the job from frame 0 there.
		rs := &resume{cp: pj.Checkpoint, frames: pj.Frames}
		j, err := p.submit(spec, true, rs)
		if err != nil {
			p.log.Warn("store: interrupted job resubmission failed", "key", pj.Key, "err", err)
			continue
		}
		p.log.Info("store: interrupted job resubmitted", "key", pj.Key, "id", j.ID, "from_frame", len(pj.Frames))
	}
}
