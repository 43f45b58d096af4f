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
// and from their serializable store form, appending lifecycle records as
// jobs move through the pool, and — at construction — replaying what a
// previous process left behind: recovered results re-enter the LRU cache
// (so resubmissions are eliminated exactly like same-process duplicates),
// and interrupted jobs are resubmitted with their last persisted checkpoint
// attached.
//
// Persistence is best-effort by design: a failed WAL append or snapshot
// write (a full disk, an injected store.* fault) degrades durability — that
// job may re-run after a crash — but never the live result or the store's
// integrity, so errors here are logged and counted, not propagated to the
// submitter.

// ParseKey parses the Key.String() form ("%08x-%08x").
func ParseKey(s string) (Key, error) {
	var k Key
	if _, err := fmt.Sscanf(s, "%08x-%08x", &k.TraceSig, &k.CfgHash); err != nil {
		return Key{}, fmt.Errorf("jobs: bad key %q: %w", s, err)
	}
	return k, nil
}

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

// recordSubmitted appends the submitted record for a leader job and marks
// the job WAL-tracked. Called between registration and queueing, so the
// worker that picks the job up always sees the final walled flag.
func (p *Pool) recordSubmitted(j *Job) {
	if p.opts.Store == nil {
		return
	}
	rec, ok := p.specRecord(j.spec)
	if !ok {
		return
	}
	if err := p.opts.Store.RecordSubmitted(j.Key.String(), rec); err != nil {
		p.log.Warn("store: submitted record failed; job will not survive a crash", "id", j.ID, "err", err)
		return
	}
	j.walled = true
}

// persistCheckpoint writes the job's freshly-taken frame-boundary checkpoint
// (j.resume) to the store, so a restarted process resumes from it.
func (p *Pool) persistCheckpoint(j *Job) {
	if !j.walled || j.resume == nil || j.resume.cp == nil {
		return
	}
	err := p.opts.Store.SaveCheckpoint(j.Key.String(), j.resume.frames, j.resume.cp.EncodeBinary())
	if err != nil {
		p.log.Warn("store: checkpoint write failed; crash recovery falls back to an earlier frame", "id", j.ID, "err", err)
	}
}

// persistResult durably saves a completed result. The signature cache it
// repopulates is keyed by inputs, so serving it after a restart is exactly
// as correct as serving it now.
func (p *Pool) persistResult(j *Job, res gpusim.Result) {
	if p.opts.Store == nil {
		return
	}
	if !j.walled {
		// The submitted record failed to land (a store write error), and a
		// bare result snapshot is unreachable on replay; re-append the spec
		// first so the completion is linked.
		p.recordSubmitted(j)
		if !j.walled {
			return
		}
	}
	if err := p.opts.Store.SaveResult(j.Key.String(), res); err != nil {
		p.log.Warn("store: result write failed; job may re-run after a crash", "id", j.ID, "err", err)
	}
}

// persistFailure closes a WAL-tracked job's recovery window after a terminal
// failure — except when the "failure" is the pool itself going away
// (shutdown cancellation), which is precisely the interruption recovery
// exists for.
func (p *Pool) persistFailure(j *Job, err error) {
	if !j.walled || errors.Is(err, context.Canceled) || errors.Is(err, ErrClosed) {
		return
	}
	if werr := p.opts.Store.RecordFailed(j.Key.String(), err.Error()); werr != nil {
		p.log.Warn("store: failed record failed; job may re-run after a crash", "id", j.ID, "err", werr)
	}
}

// recoverFromStore replays the store's recovery set into the live pool:
// results into the LRU cache (oldest completion first, preserving recency),
// then interrupted jobs back onto the queue with their decoded checkpoints.
// Called from New after workers have started.
func (p *Pool) recoverFromStore() {
	st := p.opts.Store
	rec := st.Recovered()
	for _, ks := range rec.ResultOrder {
		k, err := ParseKey(ks)
		if err != nil {
			p.log.Warn("store: recovered result has bad key; dropped", "key", ks, "err", err)
			continue
		}
		p.mu.Lock()
		p.cache.Put(k, rec.Results[ks])
		p.mu.Unlock()
	}
	if len(rec.Results) > 0 {
		p.log.Info("store: results recovered into cache", "count", len(rec.Results))
	}

	for _, pj := range rec.Pending {
		spec, err := specFromRecord(st, pj.Spec)
		if err != nil {
			p.log.Warn("store: interrupted job not recoverable; dropped", "key", pj.Key, "err", err)
			continue
		}
		if got := spec.Key().String(); got != pj.Key {
			p.log.Warn("store: recovered spec signature mismatch; dropped", "key", pj.Key, "resigned", got)
			continue
		}
		var rs *resume
		if len(pj.Checkpoint) > 0 {
			cp, derr := gpusim.DecodeCheckpoint(pj.Checkpoint)
			switch {
			case derr != nil:
				p.log.Warn("store: recovered checkpoint undecodable; restarting job from frame 0", "key", pj.Key, "err", derr)
			case cp.Frame() != pj.Frame:
				// Resuming would splice the file's stats onto the wrong
				// frame and publish a result of the wrong length.
				p.log.Warn("store: recovered checkpoint disagrees with its frame stats; restarting job from frame 0",
					"key", pj.Key, "checkpoint_frame", cp.Frame(), "stats_frames", pj.Frame)
			default:
				rs = &resume{cp: cp, frames: append([]gpusim.Stats(nil), pj.Frames...), recovered: true}
			}
		}
		j, err := p.submit(spec, true, rs)
		if err != nil {
			p.log.Warn("store: interrupted job resubmission failed", "key", pj.Key, "err", err)
			continue
		}
		p.log.Info("store: interrupted job resubmitted", "key", pj.Key, "id", j.ID, "from_frame", pj.Frame)
	}
}
