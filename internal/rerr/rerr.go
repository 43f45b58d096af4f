// Package rerr holds the sentinel errors of the public rendelim API. They
// live in an internal leaf package (imported by both the internal
// implementation packages that produce them and the root package that
// re-exports them) because the root package cannot be imported from inside
// internal/ without a cycle.
package rerr

import "errors"

// Sentinels, re-exported by the root package. Match with errors.Is; the
// concrete messages wrapping them carry the detail.
var (
	// ErrUnknownBenchmark reports a benchmark alias outside the Table II
	// suite and the extras.
	ErrUnknownBenchmark = errors.New("unknown benchmark")

	// ErrBadTrace reports a trace that failed to decode or validate.
	ErrBadTrace = errors.New("bad trace")

	// ErrBadConfig reports a simulation configuration that failed
	// validation.
	ErrBadConfig = errors.New("bad config")

	// ErrWorkerPanic reports a panic recovered from a job's run. The jobs
	// package fails that job with it, once, and never re-runs it: the same
	// inputs would panic again at the same frame.
	ErrWorkerPanic = errors.New("worker panic")
)
