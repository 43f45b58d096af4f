package store

import (
	"sync/atomic"

	"rendelim/internal/promtext"
)

// Metrics counts what the durability layer did — the steady-state write
// path, the results it served back from disk, and, crucially, what
// recovery found on disk: how many snapshots had to be quarantined, and how
// many jobs and checkpoints came back. Exposed on /metrics as resvc_store_*
// so a restart's damage report is observable, not just logged.
type Metrics struct {
	// Steady state.
	WriteErrors      atomic.Uint64 // failed snapshot writes, injected faults included
	SyncErrors       atomic.Uint64 // failed fsyncs (file + directory)
	RenameErrors     atomic.Uint64 // failed atomic snapshot publishes
	SnapshotsWritten atomic.Uint64
	ResultsLoaded    atomic.Uint64 // stored results read back on a result-cache miss

	// Recovery path.
	SnapshotsQuarantined atomic.Uint64 // corrupt snapshot files renamed aside
	CheckpointsRecovered atomic.Uint64 // frame-boundary checkpoints reloaded intact
	JobsRecovered        atomic.Uint64 // interrupted jobs handed back for resubmission

	// Post-recovery outcomes, incremented by the jobs layer.
	JobsResumed atomic.Uint64 // recovered jobs that actually resumed from their checkpoint
}

func newMetrics() *Metrics { return &Metrics{} }

// WritePrometheus writes the store counters through w.
func (m *Metrics) WritePrometheus(w *promtext.Writer) {
	w.Counter("resvc_store_write_errors_total", "Failed durability-layer file writes (injected faults included).", m.WriteErrors.Load())
	w.Counter("resvc_store_sync_errors_total", "Failed durability-layer fsyncs (injected faults included).", m.SyncErrors.Load())
	w.Counter("resvc_store_rename_errors_total", "Failed atomic snapshot publishes (injected faults included).", m.RenameErrors.Load())
	w.Counter("resvc_store_snapshots_written_total", "Snapshot files atomically published.", m.SnapshotsWritten.Load())
	w.Counter("resvc_store_snapshots_quarantined_total", "Corrupt snapshot files quarantined on read.", m.SnapshotsQuarantined.Load())
	w.Counter("resvc_store_results_loaded_total", "Stored results read back on a result-cache miss.", m.ResultsLoaded.Load())
	w.Counter("resvc_store_checkpoints_recovered_total", "Frame-boundary checkpoints reloaded intact at startup.", m.CheckpointsRecovered.Load())
	w.Counter("resvc_store_jobs_recovered_total", "Interrupted jobs handed back for resubmission at startup.", m.JobsRecovered.Load())
	w.Counter("resvc_store_jobs_resumed_total", "Recovered jobs that resumed from their persisted checkpoint.", m.JobsResumed.Load())
}
