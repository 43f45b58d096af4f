package rendelim

import "rendelim/internal/rerr"

// Sentinel errors, for errors.Is matching instead of string inspection. The
// errors actually returned wrap these with context (the offending alias, the
// decode position, the invalid parameter).
var (
	// ErrUnknownBenchmark is returned by Build (and wrapped by everything
	// that resolves benchmark aliases) when the alias names no benchmark in
	// the Table II suite or the extras.
	ErrUnknownBenchmark = rerr.ErrUnknownBenchmark

	// ErrBadTrace is returned by DecodeTrace for malformed or truncated
	// trace files, and by NewSimulator/Run for traces that fail validation.
	ErrBadTrace = rerr.ErrBadTrace

	// ErrBadConfig is returned by NewSimulator/Run when the configuration
	// fails validation (bad cache geometry, memo LUT shape, DRAM timing, or
	// refresh interval).
	ErrBadConfig = rerr.ErrBadConfig

	// ErrWorkerPanic marks a job failure caused by a panic recovered from
	// the job's run: the job fails once, and the worker carries on. Matched
	// with errors.Is on a failed job's error.
	ErrWorkerPanic = rerr.ErrWorkerPanic
)
