package jobs

import (
	"context"
	"log/slog"
	"runtime"
	"time"

	"rendelim/internal/fault"
	"rendelim/internal/gpusim"
	"rendelim/internal/lru"
	"rendelim/internal/store"
)

// options is a Pool's resolved configuration; each field is documented on
// the With* option that sets it.
type options struct {
	Workers     int
	QueueDepth  int
	CacheSize   int
	Timeout     time.Duration
	Retries     int
	Backoff     time.Duration
	Run         RunFunc
	Logger      *slog.Logger
	Fault       *fault.Plan
	Store       *store.Store
	TileWorkers int
	// CheckpointPeriod is checkpointPeriod; only tests set another value.
	CheckpointPeriod time.Duration
}

// effectiveTileWorkers resolves the TileWorkers option the way gpusim does.
func (o options) effectiveTileWorkers() int {
	tw := o.TileWorkers
	if tw < 0 {
		tw = runtime.GOMAXPROCS(0)
	}
	if tw < 1 {
		tw = 1
	}
	return tw
}

// Option configures a Pool built with NewPool. Options compose left to
// right; later options win.
type Option func(*options)

// NewPool builds a worker pool and starts its workers. The zero
// configuration is usable: NewPool() sizes itself from GOMAXPROCS, and every
// option left unset takes the default its With* function documents.
func NewPool(opts ...Option) *Pool {
	o := options{CheckpointPeriod: checkpointPeriod}
	for _, fn := range opts {
		if fn != nil {
			fn(&o)
		}
	}
	if o.Workers <= 0 {
		// Share the host between the job pool and each job's tile workers:
		// Workers * TileWorkers ≈ GOMAXPROCS.
		o.Workers = runtime.GOMAXPROCS(0) / o.effectiveTileWorkers()
		if o.Workers < 1 {
			o.Workers = 1
		}
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 1024
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 512
	}
	if o.Backoff <= 0 {
		o.Backoff = 50 * time.Millisecond
	}
	if o.Logger == nil {
		o.Logger = slog.Default()
	}
	ctx, cancel := context.WithCancel(context.Background())
	p := &Pool{
		opts:       o,
		metrics:    newMetrics(),
		log:        o.Logger,
		queue:      make(chan *Job, o.QueueDepth),
		draining:   make(chan struct{}),
		baseCtx:    ctx,
		baseCancel: cancel,
		cache:      lru.New[Key, gpusim.Result](o.CacheSize),
		flight:     newFlight(),
		reg:        make(map[string]*Job),
	}
	p.metrics.inflightFn = p.flight.len
	for i := 0; i < o.Workers; i++ {
		p.wg.Add(1)
		go p.worker()
	}
	if o.Store != nil {
		p.recoverFromStore()
	}
	return p
}

// WithWorkers sets the number of concurrent simulations. Zero or negative
// selects the default: GOMAXPROCS divided by the effective tile-worker
// count, so job-level and tile-level parallelism compose without
// oversubscribing the host.
func WithWorkers(n int) Option { return func(o *options) { o.Workers = n } }

// WithTileWorkers sets each simulation's raster-phase parallelism (see
// gpusim.Config.TileWorkers): 0 or 1 renders serially, n > 1 uses n
// goroutines per running job, negative uses one per host CPU. Results never
// depend on this knob, so it is excluded from job signatures.
func WithTileWorkers(n int) Option { return func(o *options) { o.TileWorkers = n } }

// WithQueueDepth bounds the number of waiting jobs before Submit blocks.
// Default 1024.
func WithQueueDepth(n int) Option { return func(o *options) { o.QueueDepth = n } }

// WithCacheSize sets the LRU result-cache capacity in entries. Default 512.
func WithCacheSize(n int) Option { return func(o *options) { o.CacheSize = n } }

// WithTimeout sets the per-attempt deadline. Zero means no deadline.
func WithTimeout(d time.Duration) Option { return func(o *options) { o.Timeout = d } }

// WithRetries sets how many times a transient failure or per-attempt
// timeout is retried. Default 0.
func WithRetries(n int) Option { return func(o *options) { o.Retries = n } }

// WithBackoff sets the initial retry backoff, which doubles per attempt.
// Default 50ms.
func WithBackoff(d time.Duration) Option { return func(o *options) { o.Backoff = d } }

// WithRun replaces the built-in resumable runner with a custom job
// executor.
func WithRun(fn RunFunc) Option { return func(o *options) { o.Run = fn } }

// WithLogger sets the structured job-lifecycle logger. Default
// slog.Default().
func WithLogger(l *slog.Logger) Option { return func(o *options) { o.Logger = l } }

// WithFault injects deterministic faults at the pool's sites
// (fault.SiteWorker before each attempt, fault.SiteTraceDecode before
// decoding uploads) and threads the plan into each simulation's config
// (dram.read / dram.write). Nil costs nothing.
func WithFault(p *fault.Plan) Option { return func(o *options) { o.Fault = p } }

// WithStore makes job state durable: leader submissions, completions and
// terminal failures are logged to the store's WAL, frame-boundary
// checkpoints are published beside it, and the new pool replays the
// store's recovery set — completed results re-enter the result cache and
// interrupted jobs are resubmitted from their last persisted checkpoint.
// Nil keeps the pool memory-only. The caller owns the store's lifecycle
// and must close it after the pool.
func WithStore(st *store.Store) Option { return func(o *options) { o.Store = st } }
