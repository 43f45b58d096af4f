// Package jobs is the simulation-job service layer: a bounded worker pool
// that schedules gpusim runs, with Rendering Elimination applied one level
// up — every job is keyed by a CRC32 signature of its *inputs* (the trace
// bytes or workload spec, plus the simulation config and the model that
// runs it), and a key match eliminates the whole run, either from the LRU
// result cache (the previous "frame"), by joining an identical in-flight
// execution (singleflight), or from the result a durable store kept.
// The same pool schedules both the resvc HTTP service and the reexp batch
// harness, so the service is a live demonstration of the paper's idea:
// redundant work is discarded before it enters the pipeline.
package jobs

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"rendelim/internal/crc"
	"rendelim/internal/energy"
	"rendelim/internal/gpusim"
	"rendelim/internal/lru"
	"rendelim/internal/rerr"
	"rendelim/internal/wire"
	"rendelim/internal/workload"
)

// Spec describes one simulation job. Exactly one input form is used: an
// uploaded trace binary (TraceBin) or a workload alias resolved through
// workload.ByAlias and built at Params. A Spec is plain data, so every job
// can be written to the store and re-run in a fresh process.
type Spec struct {
	// Alias names the workload; it is resolved when TraceBin is empty.
	Alias  string
	Params workload.Params

	// TraceBin is an encoded internal/trace binary (untrusted upload).
	TraceBin []byte

	// Tech selects the technique. Config is the rest of the simulation
	// config: nil means gpusim.DefaultConfig(), and Config.Technique is
	// ignored in favour of Tech. Tag is an opaque salt: specs that differ
	// only in Tag get different keys.
	Tech   gpusim.Technique
	Config *gpusim.Config
	Tag    string
}

// Key is a job signature: CRC32 over the job's inputs and CRC32 over its
// configuration — the (trace signature, config hash) pair, and the
// job-level analogue of the per-tile signature of Section III.
type Key struct {
	TraceSig uint32
	CfgHash  uint32
}

// String renders the key for logs and API payloads.
func (k Key) String() string { return fmt.Sprintf("%08x-%08x", k.TraceSig, k.CfgHash) }

// Key signs everything a result depends on, as RE signs every input of a
// tile. Uploaded traces are signed over their raw bytes; alias specs over
// workload.Fingerprint, the alias and the params. The config half signs
// the tag and the effective config (gpusim.Config.AppendSigned, which
// leads with gpusim.ModelFingerprint), so a result simulated under another
// config or by another model never matches.
func (s *Spec) Key() Key {
	b := make([]byte, 0, 512)
	var tsig uint32
	if len(s.TraceBin) > 0 {
		tsig = crc.Checksum(s.TraceBin)
	} else {
		b = wire.AppendU32(b, workload.Fingerprint)
		b = wire.AppendString(b, s.Alias)
		for _, v := range [...]int64{int64(s.Params.Width), int64(s.Params.Height), int64(s.Params.Frames), s.Params.Seed} {
			b = wire.AppendI64(b, v)
		}
		tsig = crc.Checksum(b)
		b = b[:0]
	}
	b = wire.AppendString(b, s.Tag)
	cfg := s.config()
	b = cfg.AppendSigned(b)
	return Key{TraceSig: tsig, CfgHash: crc.Checksum(b)}
}

// config returns the spec's effective simulation config: Config, or the
// default when nil, with Tech as its technique.
func (s *Spec) config() gpusim.Config {
	cfg := gpusim.DefaultConfig()
	if s.Config != nil {
		cfg = *s.Config
	}
	cfg.Technique = s.Tech
	return cfg
}

// ErrClosed is returned by Submit after Close has begun draining.
var ErrClosed = errors.New("jobs: pool closed")

// ErrOverloaded is returned by TrySubmit when the submission queue is full
// (load shedding; the server maps it to HTTP 429).
var ErrOverloaded = errors.New("jobs: queue full")

// panicError converts a recovered panic value into an error wrapping
// rerr.ErrWorkerPanic (and the original error, if the panic carried one).
func panicError(r any) error {
	if err, ok := r.(error); ok {
		return fmt.Errorf("jobs: run panicked: %w: %w", rerr.ErrWorkerPanic, err)
	}
	return fmt.Errorf("jobs: run panicked: %w: %v", rerr.ErrWorkerPanic, r)
}

// State is a job's lifecycle position.
type State int32

// Job states.
const (
	Queued State = iota
	Running
	Done
	Failed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case Queued:
		return "queued"
	case Running:
		return "running"
	case Done:
		return "done"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// Job is one submission. Deduped jobs share a call with the leader that is
// (or was) actually simulating.
type Job struct {
	ID      string
	Key     Key
	Deduped bool // eliminated by signature match: cache hit or in-flight join
	Created time.Time

	spec  Spec
	call  *call
	state atomic.Int32 // mirrors call completion; Running set by worker

	// resume is the persisted checkpoint a job recovered from the store
	// resumes from, so it continues from the last checkpointed frame
	// instead of frame 0. Only recoverFromStore sets it, before the job is
	// queued; released once the job is done or failed.
	resume *resume
	// recorded is set once the job's spec file reached the store; only
	// recorded jobs take checkpoints or persist a failure. Written before
	// the job is queued, read by the worker that dequeues it.
	recorded bool
}

// resume is a recovered job's last frame-boundary checkpoint blob, nil when
// there is none, and the stats of every frame completed before it.
type resume struct {
	cp     []byte
	frames []gpusim.Stats
}

// Wait blocks until the job completes (or ctx expires — which abandons the
// wait, not the execution) and returns the outcome.
func (j *Job) Wait(ctx context.Context) (gpusim.Result, error) {
	res, err := j.call.wait(ctx)
	return res, err
}

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	select {
	case <-j.call.done:
		if j.call.err != nil {
			return Failed
		}
		return Done
	default:
		return State(j.state.Load())
	}
}

// Result returns the outcome without blocking; ok is false while the job is
// still pending.
func (j *Job) Result() (res gpusim.Result, err error, ok bool) {
	select {
	case <-j.call.done:
		return j.call.result, j.call.err, true
	default:
		return gpusim.Result{}, nil, false
	}
}

// RunFunc executes one job. observe records per-stage latencies into the
// pool metrics; implementations may ignore it.
type RunFunc func(ctx context.Context, spec Spec, observe func(stage string, d time.Duration)) (gpusim.Result, error)

// Pool is the bounded scheduler: a FIFO queue drained by Workers goroutines,
// fronted by the signature cache and singleflight dedup.
type Pool struct {
	opts    options
	metrics *Metrics
	log     *slog.Logger

	queue  chan *Job
	sendMu sync.RWMutex // Submit sends under RLock; Close closes queue under Lock
	wg     sync.WaitGroup

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex                     // guards cache, registry, ids, closed; ordered before flight.mu
	cache    *lru.Cache[Key, gpusim.Result] // the job-level Signature Buffer: a hit eliminates the whole simulation
	flight   *flight
	reg      map[string]*Job
	regOrder []string
	nextID   uint64
	closed   bool
}

// registryLimit bounds how many finished jobs stay addressable by ID.
const registryLimit = 4096

// Workers returns the pool's concurrency bound.
func (p *Pool) Workers() int { return p.opts.Workers }

// Metrics exposes the pool counters.
func (p *Pool) Metrics() *Metrics { return p.metrics }

// CacheLen returns the number of cached results.
func (p *Pool) CacheLen() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cache.Len()
}

// Get returns a previously submitted job by ID.
func (p *Pool) Get(id string) (*Job, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	j, ok := p.reg[id]
	return j, ok
}

// Submit schedules spec. Identical submissions are eliminated: a cached
// result completes the job immediately, an in-flight identical job is
// joined. Submit blocks only when the queue is full, and fails after Close.
func (p *Pool) Submit(spec Spec) (*Job, error) {
	return p.submit(spec, true, nil)
}

// TrySubmit is Submit with load shedding: when the queue is full it fails
// immediately with ErrOverloaded instead of blocking. The HTTP server uses
// it so overload surfaces as 429 + Retry-After rather than piled-up
// handlers.
func (p *Pool) TrySubmit(spec Spec) (*Job, error) {
	return p.submit(spec, false, nil)
}

// submit is the shared submission path. rs, non-nil only for store-recovered
// jobs, attaches the job's recovery state before any worker can dequeue the
// job; such a job's spec file is already on disk, so a leader is marked
// recorded instead of publishing it again.
func (p *Pool) submit(spec Spec, block bool, rs *resume) (*Job, error) {
	p.metrics.Submitted.Add(1)
	key := spec.Key()

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, ErrClosed
	}
	j := &Job{
		ID:      fmt.Sprintf("j-%06d", p.nextID),
		Key:     key,
		Created: time.Now(),
		spec:    spec,
		resume:  rs,
	}
	p.nextID++

	// Level-1 elimination: the result cache (the "previous frame").
	if res, ok := p.cache.Get(key); ok {
		c := newCall(nil, nil)
		c.finish(res, nil)
		j.call = c
		j.Deduped = true
		p.register(j)
		p.mu.Unlock()
		p.eliminated(j, "cache", &p.metrics.CacheHits)
		return j, nil
	}

	// Level-2 elimination: join an identical in-flight job (singleflight).
	ctx, cancel := context.WithCancel(p.baseCtx)
	c := newCall(ctx, cancel)
	if leader := p.flight.join(key, c); leader != nil {
		cancel()
		j.call = leader
		j.Deduped = true
		p.register(j)
		p.mu.Unlock()
		p.eliminated(j, "inflight-join", &p.metrics.Joins)
		return j, nil
	}

	// This job is the leader. A result that the store holds for its key
	// eliminates it like a cache hit; the followers that joined meanwhile
	// get that result too.
	j.call = c
	p.mu.Unlock()
	if res, ok := p.loadResult(key); ok {
		j.Deduped = true
		p.mu.Lock()
		p.cache.Put(key, res)
		p.flight.forget(key)
		p.register(j)
		p.mu.Unlock()
		cancel()
		c.finish(res, nil)
		p.eliminated(j, "store", &p.metrics.CacheHits)
		return j, nil
	}

	// Otherwise queue it for a worker. With a store, the spec file is
	// published first — once it lands, a crash at any later point recovers
	// this job.
	if rs != nil {
		j.recorded = true
	} else {
		p.recordSubmitted(j)
	}
	p.metrics.queueLen.Add(1)

	p.sendMu.RLock()
	p.mu.Lock()
	closed := p.closed
	p.register(j)
	p.mu.Unlock()
	if closed {
		// Raced with Close after becoming the leader: fail the call so any
		// follower that joined it is released too.
		p.sendMu.RUnlock()
		p.metrics.queueLen.Add(-1)
		p.mu.Lock()
		p.flight.forget(key)
		p.mu.Unlock()
		cancel()
		c.finish(gpusim.Result{}, ErrClosed)
		return nil, ErrClosed
	}
	if block {
		p.queue <- j
	} else {
		select {
		case p.queue <- j:
		default:
			// Queue full: shed the load instead of blocking the caller.
			p.sendMu.RUnlock()
			p.metrics.queueLen.Add(-1)
			p.metrics.LoadShed.Add(1)
			p.mu.Lock()
			p.flight.forget(key)
			p.mu.Unlock()
			cancel()
			c.finish(gpusim.Result{}, ErrOverloaded)
			p.log.Warn("job shed", "id", j.ID, "key", key.String(), "queue_depth", p.opts.QueueDepth)
			return nil, ErrOverloaded
		}
	}
	p.sendMu.RUnlock()
	if p.log.Enabled(p.baseCtx, slog.LevelDebug) {
		p.log.Debug("job queued", "id", j.ID, "key", key.String(), "alias", spec.Alias, "tech", spec.Tech.String())
	}
	return j, nil
}

// eliminated counts a job that a key match eliminated, via the result
// cache, the store or an in-flight job, in Deduped and in hits.
func (p *Pool) eliminated(j *Job, via string, hits *atomic.Uint64) {
	p.metrics.Deduped.Add(1)
	hits.Add(1)
	if p.log.Enabled(p.baseCtx, slog.LevelDebug) {
		p.log.Debug("job eliminated", "id", j.ID, "key", j.Key.String(), "via", via)
	}
}

// register indexes the job by ID and drops the oldest finished jobs past
// registryLimit; caller holds p.mu. A live job is never dropped: at the
// head of the order it moves to the back, so it cannot pin the finished
// jobs behind it. One call looks at each entry at most once, and a moved
// job comes back to the head only after everything newer, so while fewer
// than registryLimit jobs are live a submission costs O(1) amortised.
func (p *Pool) register(j *Job) {
	p.reg[j.ID] = j
	p.regOrder = append(p.regOrder, j.ID)
	for n := len(p.regOrder); n > 0 && len(p.regOrder) > registryLimit; n-- {
		old := p.regOrder[0]
		p.regOrder = p.regOrder[1:]
		if oj, ok := p.reg[old]; ok {
			if s := oj.State(); s == Queued || s == Running {
				p.regOrder = append(p.regOrder, old)
				continue
			}
			delete(p.reg, old)
		}
	}
}

// Close drains the pool: no new submissions, queued and running jobs finish.
// When ctx expires first, outstanding executions are cancelled and ctx.Err
// is returned.
func (p *Pool) Close(ctx context.Context) error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.mu.Unlock()
	p.sendMu.Lock()
	close(p.queue)
	p.sendMu.Unlock()

	done := make(chan struct{})
	go func() {
		p.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		p.baseCancel()
		<-done
		return ctx.Err()
	}
}

// Kill hard-stops the pool without draining — the in-process equivalent of
// kill -9 for crash-recovery tests: queued and running jobs are cancelled
// mid-flight and their waiters released with context.Canceled. Because
// shutdown cancellation never removes a job's spec file, a store-backed pool
// reopened on the same data dir recovers those jobs and resumes them from
// their last persisted checkpoint. Kill returns once every worker has
// stopped; the pool is unusable afterwards.
func (p *Pool) Kill() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.baseCancel() // cancel first: running frames stop at the next boundary
	p.sendMu.Lock()
	close(p.queue)
	p.sendMu.Unlock()
	p.wg.Wait()
}

// worker drains the queue until Close or Kill closes it. runOnce contains
// a panicking run, so a worker outlives every job it executes.
func (p *Pool) worker() {
	defer p.wg.Done()
	for j := range p.queue {
		p.execute(j)
	}
}

func (p *Pool) execute(j *Job) {
	p.metrics.queueLen.Add(-1)
	p.metrics.ObserveStage(StageQueue, time.Since(j.Created).Seconds())
	p.metrics.Running.Add(1)
	j.state.Store(int32(Running))

	start := time.Now()
	res, err := p.runOnce(j)
	p.metrics.Running.Add(-1)
	// Done or failed, nothing resumes this job again: release a recovered
	// checkpoint (framebuffers, cache arrays, memo baselines) instead of
	// keeping it alive for as long as the registry remembers the job.
	j.resume = nil

	p.mu.Lock()
	if err == nil {
		p.cache.Put(j.Key, res)
	}
	p.flight.forget(j.Key)
	p.mu.Unlock()

	if err == nil {
		p.metrics.Completed.Add(1)
		p.metrics.ObserveResult(res)
		p.persistResult(j, res)
		if p.log.Enabled(p.baseCtx, slog.LevelDebug) {
			p.log.Debug("job done", "id", j.ID, "key", j.Key.String(),
				"frames", len(res.Frames), "tiles_skipped", res.Total.TilesSkipped,
				"duration", time.Since(start))
		}
	} else {
		// A deadline that the job's own context did not cause is the
		// pool's timeout.
		if errors.Is(err, context.DeadlineExceeded) && j.call.ctx.Err() == nil {
			p.metrics.Timeouts.Add(1)
		}
		p.metrics.Failed.Add(1)
		p.persistFailure(j, err)
		p.log.Warn("job failed", "id", j.ID, "key", j.Key.String(),
			"duration", time.Since(start), "err", err)
	}
	j.call.finish(res, err)
	if j.call.cancel != nil {
		j.call.cancel() // release the context chained off baseCtx
	}
}

// runOnce executes the job once, under the pool's deadline, with panic
// containment: a panicking run fails its own job with an error wrapping
// rerr.ErrWorkerPanic, never the worker.
func (p *Pool) runOnce(j *Job) (res gpusim.Result, err error) {
	ctx := j.call.ctx
	if p.opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, p.opts.Timeout)
		defer cancel()
	}
	defer func() {
		if r := recover(); r != nil {
			p.metrics.Panics.Add(1)
			err = panicError(r)
			p.log.Error("run panicked; contained", "id", j.ID, "err", err, "stack", string(debug.Stack()))
		}
	}()
	observe := func(stage string, d time.Duration) { p.metrics.ObserveStage(stage, d.Seconds()) }
	if p.opts.Run != nil {
		return p.opts.Run(ctx, j.spec, observe)
	}
	return p.runResumable(ctx, j, observe)
}

// DefaultRun builds the trace (decode the upload or build the alias), then
// simulates with cancellation honored at frame boundaries, so timeouts and
// cancellation interrupt long runs. It is the pool's runner without the
// pool: it takes no checkpoints and keeps the spec config's TileWorkers.
func DefaultRun(ctx context.Context, spec Spec, observe func(stage string, d time.Duration)) (gpusim.Result, error) {
	buildStart := time.Now()
	tr, err := specTrace(spec)
	if err != nil {
		return gpusim.Result{}, err
	}
	sim, err := gpusim.New(tr, spec.config())
	if err != nil {
		return gpusim.Result{}, err
	}
	observe(StageBuild, time.Since(buildStart))

	simStart := time.Now()
	res, err := sim.RunContext(ctx)
	if err != nil {
		return gpusim.Result{}, err
	}
	observe(StageSimulate, time.Since(simStart))
	return res, nil
}

// ResultSummary is the JSON-friendly digest of a run the service returns —
// including the tile-elimination rate, so the per-job skip fraction and the
// service's job-elimination ratio read the same way.
type ResultSummary struct {
	Name      string `json:"name"`
	Technique string `json:"technique"`
	Frames    int    `json:"frames"`

	Cycles         uint64 `json:"cycles"`
	GeometryCycles uint64 `json:"geometry_cycles"`
	RasterCycles   uint64 `json:"raster_cycles"`

	TilesTotal       uint64  `json:"tiles_total"`
	TilesSkipped     uint64  `json:"tiles_skipped"`
	TileSkipFraction float64 `json:"tile_skip_fraction"`

	FragsShaded uint64  `json:"frags_shaded"`
	DRAMBytes   uint64  `json:"dram_bytes"`
	EnergyMJ    float64 `json:"energy_mj"`
}

// Summarize digests a run result.
func Summarize(res gpusim.Result) ResultSummary {
	t := res.Total
	eb := energy.Default().Compute(t.Activity)
	return ResultSummary{
		Name:             res.Name,
		Technique:        res.Technique.String(),
		Frames:           len(res.Frames),
		Cycles:           t.TotalCycles(),
		GeometryCycles:   t.GeometryCycles,
		RasterCycles:     t.RasterCycles,
		TilesTotal:       t.TilesTotal,
		TilesSkipped:     t.TilesSkipped,
		TileSkipFraction: t.SkipFraction(),
		FragsShaded:      t.FragsShaded,
		DRAMBytes:        t.TotalTraffic(),
		EnergyMJ:         eb.Total() * 1e3,
	}
}
