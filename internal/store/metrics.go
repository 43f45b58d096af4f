package store

import (
	"sync/atomic"

	"rendelim/internal/promtext"
)

// Metrics counts what the durability layer did — both the steady-state
// append path and, crucially, what recovery found on disk: how many records
// replayed, how much torn tail was cut, how many snapshots had to be
// quarantined, and how many jobs/results/checkpoints came back. Exposed on
// /metrics as resvc_store_* so a restart's damage report is observable, not
// just logged.
type Metrics struct {
	// WAL append path.
	RecordsAppended  atomic.Uint64 // lifecycle records durably appended
	WriteErrors      atomic.Uint64 // failed file writes (WAL + snapshots), injected faults included
	SyncErrors       atomic.Uint64 // failed fsyncs (file + directory)
	RenameErrors     atomic.Uint64 // failed atomic snapshot publishes
	SnapshotsWritten atomic.Uint64

	// Recovery path.
	RecordsReplayed      atomic.Uint64 // intact WAL records replayed at open
	RecordsUnparseable   atomic.Uint64 // CRC-valid records whose JSON did not parse
	TornTailTruncations  atomic.Uint64 // opens that found and cut a torn WAL tail
	TornTailBytes        atomic.Uint64 // bytes discarded by torn-tail truncation
	SnapshotsQuarantined atomic.Uint64 // corrupt snapshot files renamed aside
	ResultsRecovered     atomic.Uint64 // completed results reloaded into the cache
	CheckpointsRecovered atomic.Uint64 // frame-boundary checkpoints reloaded intact
	JobsRecovered        atomic.Uint64 // interrupted jobs handed back for resubmission

	// Post-recovery outcomes, incremented by the jobs layer.
	JobsResumed atomic.Uint64 // recovered jobs that actually resumed from their checkpoint
}

func newMetrics() *Metrics { return &Metrics{} }

// WritePrometheus writes the store counters through w.
func (m *Metrics) WritePrometheus(w *promtext.Writer) {
	w.Counter("resvc_store_records_appended_total", "Job lifecycle records durably appended to the WAL.", m.RecordsAppended.Load())
	w.Counter("resvc_store_records_replayed_total", "Intact WAL records replayed at startup.", m.RecordsReplayed.Load())
	w.Counter("resvc_store_records_unparseable_total", "CRC-valid WAL records whose payload did not parse.", m.RecordsUnparseable.Load())
	w.Counter("resvc_store_torn_tail_truncations_total", "Startups that found and truncated a torn WAL tail.", m.TornTailTruncations.Load())
	w.Counter("resvc_store_torn_tail_bytes_total", "Bytes discarded by torn-tail truncation.", m.TornTailBytes.Load())
	w.Counter("resvc_store_write_errors_total", "Failed durability-layer file writes (injected faults included).", m.WriteErrors.Load())
	w.Counter("resvc_store_sync_errors_total", "Failed durability-layer fsyncs (injected faults included).", m.SyncErrors.Load())
	w.Counter("resvc_store_rename_errors_total", "Failed atomic snapshot publishes (injected faults included).", m.RenameErrors.Load())
	w.Counter("resvc_store_snapshots_written_total", "Snapshot files atomically published.", m.SnapshotsWritten.Load())
	w.Counter("resvc_store_snapshots_quarantined_total", "Corrupt snapshot files quarantined during recovery.", m.SnapshotsQuarantined.Load())
	w.Counter("resvc_store_results_recovered_total", "Completed results reloaded into the cache at startup.", m.ResultsRecovered.Load())
	w.Counter("resvc_store_checkpoints_recovered_total", "Frame-boundary checkpoints reloaded intact at startup.", m.CheckpointsRecovered.Load())
	w.Counter("resvc_store_jobs_recovered_total", "Interrupted jobs handed back for resubmission at startup.", m.JobsRecovered.Load())
	w.Counter("resvc_store_jobs_resumed_total", "Recovered jobs that resumed from their persisted checkpoint.", m.JobsResumed.Load())
}
