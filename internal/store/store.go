// Package store is the durability layer under the resvc job service: a
// CRC-protected, length-prefixed write-ahead log of job lifecycle records
// plus an on-disk snapshot store for completed results, frame-boundary
// simulator checkpoints, and uploaded trace blobs — all written with
// temp-file + fsync + atomic-rename discipline.
//
// The point is that Rendering Elimination's memoization survives kill -9:
// on startup the WAL is replayed (truncating a torn tail at the first bad
// CRC instead of refusing to boot, and quarantining corrupt snapshot files
// instead of aborting), completed results re-populate the jobs result cache
// so cross-restart submissions are eliminated as cache hits, and jobs that
// were mid-flight when the process died are handed back with their last
// persisted checkpoint so they resume from that frame boundary rather than
// frame 0.
//
// Directory layout under the data dir:
//
//	wal.log                  job lifecycle records (appended, fsynced)
//	results/<key>.snap       completed gpusim.Result (JSON body)
//	checkpoints/<key>.snap   per-frame stats (JSON) + encoded checkpoint
//	traces/<crc32>.snap      content-addressed uploaded trace binaries
//
// Keys are jobs.Key strings ("%08x-%08x"), which are filesystem-safe by
// construction. The store never imports internal/jobs (jobs imports store);
// specs cross the boundary as JobSpec, which holds everything a job is, so
// every job is recorded.
package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"rendelim/internal/crc"
	"rendelim/internal/fault"
	"rendelim/internal/gpusim"
	"rendelim/internal/wire"
)

// Record types, in lifecycle order.
const (
	RecSubmitted = "submitted"
	RecCompleted = "completed"
	RecFailed    = "failed"

	// RecStarted and RecCheckpointed are no longer written: a submitted
	// record already makes a key pending, and a checkpoint's snapshot file
	// is its only record. Replaying an older WAL keeps the key pending on
	// either; a checkpointed record's "frame" key is ignored.
	RecStarted      = "started"
	RecCheckpointed = "checkpointed"
)

// Record is one WAL entry (JSON payload inside the CRC'd frame).
type Record struct {
	Type string   `json:"t"`
	Key  string   `json:"key"`
	Spec *JobSpec `json:"spec,omitempty"` // on submitted
	Err  string   `json:"err,omitempty"`  // on failed
}

// JobSpec is the serializable identity of a job — enough to rebuild and
// re-run it in a fresh process. Trace uploads are referenced by the CRC32 of
// their bytes (the content address of the blob in traces/), never inlined.
// A nil Config means the default config and is left out of the record.
type JobSpec struct {
	Alias    string         `json:"alias,omitempty"`
	Width    int            `json:"width,omitempty"`
	Height   int            `json:"height,omitempty"`
	Frames   int            `json:"frames,omitempty"`
	Seed     int64          `json:"seed,omitempty"`
	TraceCRC uint32         `json:"trace_crc,omitempty"`
	Tech     string         `json:"tech"`
	Tag      string         `json:"tag,omitempty"`
	Config   *gpusim.Config `json:"config,omitempty"`
}

// PendingJob is an interrupted job recovered from the WAL: it was submitted
// but neither completed nor failed before the process died.
type PendingJob struct {
	Key  string
	Spec JobSpec
	// Frame is the frame boundary of the job's checkpoint file, the number
	// of per-frame stats it holds (0 = no readable checkpoint: the job
	// starts over); Frames carries those stats and Checkpoint the encoded
	// gpusim checkpoint blob.
	Frame      int
	Frames     []gpusim.Stats
	Checkpoint []byte
}

// Recovery is everything Open reconstructed from disk.
type Recovery struct {
	// Results maps job keys to their recovered completed results, for
	// re-populating the jobs LRU cache.
	Results map[string]gpusim.Result
	// ResultOrder lists Results' keys oldest-completion-first (WAL order),
	// so cache re-population preserves LRU recency.
	ResultOrder []string
	// Pending lists interrupted jobs to resubmit, in WAL submission order.
	Pending []PendingJob
}

// Options configures Open.
type Options struct {
	// Fault, when non-nil, arms the store.write / store.sync /
	// store.rename injection sites. Nil costs nothing.
	Fault *fault.Plan
	// Logger receives recovery and quarantine events; default slog.Default.
	Logger *slog.Logger
}

// Store is the durability layer. All methods are safe for concurrent use.
type Store struct {
	dir     string
	fault   *fault.Plan
	log     *slog.Logger
	metrics *Metrics

	mu  sync.Mutex // serializes WAL appends and close
	wal *wal

	recovered Recovery
}

// Open opens (creating if needed) the data directory, replays the WAL,
// loads and verifies result/checkpoint snapshots, and returns the store
// ready for appends. Damage is absorbed, quantified in Metrics, and logged —
// a torn WAL tail is truncated, corrupt snapshots are quarantined, and a
// completed job whose result snapshot is unreadable is downgraded to a
// pending job (re-simulated) when its spec survives.
func Open(dir string, opts Options) (*Store, error) {
	log := opts.Logger
	if log == nil {
		log = slog.Default()
	}
	for _, d := range []string{dir, filepath.Join(dir, "results"), filepath.Join(dir, "checkpoints"), filepath.Join(dir, "traces")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: mkdir %s: %w", d, err)
		}
	}
	s := &Store{dir: dir, fault: opts.Fault, log: log, metrics: newMetrics()}

	// Replay: fold lifecycle records into a per-key state machine. Replay
	// order is authoritative — the last record for a key wins.
	type keyState struct {
		last    string
		spec    *JobSpec
		seenAt  int // record index of last transition, for stable ordering
		doneAt  int
		pending bool
	}
	states := make(map[string]*keyState)
	idx := 0
	w, err := openWAL(filepath.Join(dir, walName), opts.Fault, s.metrics, func(payload []byte) {
		idx++
		var rec Record
		if err := json.Unmarshal(payload, &rec); err != nil || rec.Key == "" {
			// A CRC-valid but semantically broken record would take a
			// serializer bug; count it and move on.
			s.metrics.RecordsUnparseable.Add(1)
			return
		}
		st := states[rec.Key]
		if st == nil {
			st = &keyState{}
			states[rec.Key] = st
		}
		st.last = rec.Type
		st.seenAt = idx
		switch rec.Type {
		case RecSubmitted:
			st.spec = rec.Spec
			st.pending = true
		case RecStarted, RecCheckpointed:
			st.pending = true
		case RecCompleted:
			st.pending = false
			st.doneAt = idx
		case RecFailed:
			st.pending = false
			st.doneAt = 0
		}
	})
	if err != nil {
		return nil, err
	}
	s.wal = w

	// Load completed results (oldest first, preserving LRU recency) and
	// assemble the pending set.
	s.recovered.Results = make(map[string]gpusim.Result)
	type done struct {
		key string
		at  int
	}
	var dones []done
	var pendings []*keyState
	pendingKey := make(map[*keyState]string)
	for key, st := range states {
		switch {
		case st.last == RecCompleted:
			dones = append(dones, done{key, st.doneAt})
		case st.pending:
			pendings = append(pendings, st)
			pendingKey[st] = key
		}
	}
	sort.Slice(dones, func(i, j int) bool { return dones[i].at < dones[j].at })
	sort.Slice(pendings, func(i, j int) bool { return pendings[i].seenAt < pendings[j].seenAt })

	for _, d := range dones {
		res, err := s.loadResult(d.key)
		if err != nil {
			st := states[d.key]
			if st.spec != nil {
				// The WAL says done but the proof is gone: fall back to
				// re-running the job rather than silently forgetting it.
				s.log.Warn("store: completed result unreadable; will re-run", "key", d.key, "err", err)
				pendings = append(pendings, st)
				pendingKey[st] = d.key
			} else {
				s.log.Warn("store: completed result unreadable and spec unknown; dropped", "key", d.key, "err", err)
			}
			continue
		}
		s.recovered.Results[d.key] = res
		s.recovered.ResultOrder = append(s.recovered.ResultOrder, d.key)
		s.metrics.ResultsRecovered.Add(1)
	}

	for _, st := range pendings {
		key := pendingKey[st]
		if st.spec == nil {
			s.log.Warn("store: interrupted job has no recorded spec; dropped", "key", key)
			continue
		}
		pj := PendingJob{Key: key, Spec: *st.spec}
		// The checkpoint file, when there is one, is the job's only
		// checkpoint record. A file left by an earlier run of the same key
		// is as good as a fresh one: the key signs trace, config and model,
		// and Resume re-checks the blob.
		frames, blob, err := s.loadCheckpoint(key)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Never checkpointed: resume from frame 0.
		case err != nil:
			s.log.Warn("store: checkpoint unreadable; resuming from frame 0", "key", key, "err", err)
		default:
			pj.Frame = len(frames)
			pj.Frames = frames
			pj.Checkpoint = blob
			s.metrics.CheckpointsRecovered.Add(1)
		}
		s.recovered.Pending = append(s.recovered.Pending, pj)
		s.metrics.JobsRecovered.Add(1)
	}
	return s, nil
}

// Dir returns the data directory the store was opened on.
func (s *Store) Dir() string { return s.dir }

// Metrics exposes the store counters.
func (s *Store) Metrics() *Metrics { return s.metrics }

// Recovered returns what Open reconstructed. The caller owns the value;
// the store never mutates it after Open.
func (s *Store) Recovered() Recovery { return s.recovered }

// Close releases the WAL handle. Every append was already fsynced.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.wal.close()
	s.wal = nil
	return err
}

// appendRecord marshals and appends one WAL record.
func (s *Store) appendRecord(rec Record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: marshal record: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal == nil {
		return fmt.Errorf("store: closed")
	}
	return s.wal.append(payload)
}

// RecordSubmitted logs that key's leader execution was accepted, carrying
// the serializable spec recovery needs to re-run it.
func (s *Store) RecordSubmitted(key string, spec JobSpec) error {
	return s.appendRecord(Record{Type: RecSubmitted, Key: key, Spec: &spec})
}

// RecordFailed logs key's terminal failure, closing its recovery window.
func (s *Store) RecordFailed(key string, cause string) error {
	return s.appendRecord(Record{Type: RecFailed, Key: key, Err: cause})
}

// SaveResult atomically persists a completed result, then logs the
// completion — in that order, so a crash between the two re-runs the job
// instead of trusting a completion record with no result behind it. The
// job's checkpoint snapshot, now superseded, is removed.
func (s *Store) SaveResult(key string, res gpusim.Result) error {
	body, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("store: marshal result: %w", err)
	}
	if err := s.writeSnapshot(s.resultPath(key), body); err != nil {
		return err
	}
	if err := s.appendRecord(Record{Type: RecCompleted, Key: key}); err != nil {
		return err
	}
	os.Remove(s.checkpointPath(key))
	return nil
}

// loadResult reads and verifies a completed result snapshot.
func (s *Store) loadResult(key string) (gpusim.Result, error) {
	body, err := s.readSnapshot(s.resultPath(key))
	if err != nil {
		return gpusim.Result{}, err
	}
	var res gpusim.Result
	if err := json.Unmarshal(body, &res); err != nil {
		s.quarantineResultJSON(key, err)
		return gpusim.Result{}, fmt.Errorf("store: result decode: %w", err)
	}
	return res, nil
}

// quarantineResultJSON handles the CRC-valid-but-unparseable case the same
// way as CRC damage: move the file aside.
func (s *Store) quarantineResultJSON(key string, cause error) {
	s.quarantine(s.resultPath(key), cause)
}

// checkpointBody frames the checkpoint snapshot body: JSON meta (per-frame
// stats) then the opaque encoded simulator checkpoint.
func checkpointBody(frames []gpusim.Stats, ckpt []byte) ([]byte, error) {
	meta, err := json.Marshal(frames)
	if err != nil {
		return nil, fmt.Errorf("store: marshal checkpoint meta: %w", err)
	}
	body := make([]byte, 0, 8+len(meta)+len(ckpt))
	body = wire.AppendBytes(body, meta)
	body = wire.AppendBytes(body, ckpt)
	return body, nil
}

// SaveCheckpoint atomically persists key's frame-boundary checkpoint: the
// encoded simulator state plus the stats of every frame completed before
// it, whose count is the checkpoint's frame. The published file is the
// checkpoint's only record; no WAL record is appended, and Open finds the
// file by key.
func (s *Store) SaveCheckpoint(key string, frames []gpusim.Stats, ckpt []byte) error {
	body, err := checkpointBody(frames, ckpt)
	if err != nil {
		return err
	}
	return s.writeSnapshot(s.checkpointPath(key), body)
}

// loadCheckpoint reads and verifies a checkpoint snapshot.
func (s *Store) loadCheckpoint(key string) ([]gpusim.Stats, []byte, error) {
	body, err := s.readSnapshot(s.checkpointPath(key))
	if err != nil {
		return nil, nil, err
	}
	r := wire.NewReader(body)
	meta := r.Bytes()
	ckpt := r.Bytes()
	if err := r.Err(); err != nil {
		s.quarantine(s.checkpointPath(key), err)
		return nil, nil, fmt.Errorf("store: checkpoint frame: %w", err)
	}
	var frames []gpusim.Stats
	if err := json.Unmarshal(meta, &frames); err != nil {
		s.quarantine(s.checkpointPath(key), err)
		return nil, nil, fmt.Errorf("store: checkpoint meta decode: %w", err)
	}
	return frames, ckpt, nil
}

// SaveTrace persists an uploaded trace binary content-addressed by its
// CRC32 (the same checksum that forms the job signature) and returns that
// address. Saving bytes already present is a cheap no-op.
func (s *Store) SaveTrace(bin []byte) (uint32, error) {
	sum := crc.Checksum(bin)
	path := s.tracePath(sum)
	if _, err := os.Stat(path); err == nil {
		return sum, nil
	}
	if err := s.writeSnapshot(path, bin); err != nil {
		return 0, err
	}
	return sum, nil
}

// LoadTrace fetches a trace blob by content address, verifying both the
// snapshot CRC and the content address itself.
func (s *Store) LoadTrace(sum uint32) ([]byte, error) {
	path := s.tracePath(sum)
	body, err := s.readSnapshot(path)
	if err != nil {
		return nil, err
	}
	if got := crc.Checksum(body); got != sum {
		err := fmt.Errorf("store: trace blob content CRC %08x != address %08x", got, sum)
		s.quarantine(path, err)
		return nil, err
	}
	return body, nil
}

// QuarantinedFiles lists every quarantined file under the data dir —
// evidence for postmortems and CI artifacts.
func (s *Store) QuarantinedFiles() []string {
	var out []string
	filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && isQuarantined(d.Name()) {
			out = append(out, path)
		}
		return nil
	})
	sort.Strings(out)
	return out
}

func (s *Store) resultPath(key string) string {
	return filepath.Join(s.dir, "results", sanitizeKey(key)+".snap")
}

func (s *Store) checkpointPath(key string) string {
	return filepath.Join(s.dir, "checkpoints", sanitizeKey(key)+".snap")
}

func (s *Store) tracePath(sum uint32) string {
	return filepath.Join(s.dir, "traces", fmt.Sprintf("%08x.snap", sum))
}

// sanitizeKey defends the path namespace: jobs.Key strings are hex-and-dash
// by construction, but the store cannot see that type, so anything else is
// flattened rather than trusted as a path component.
func sanitizeKey(key string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		}
		return '_'
	}, key)
	if clean == "" || clean != key {
		// Collision-proof the flattened name with the original's checksum.
		clean = fmt.Sprintf("%s-%08x", clean, crc.Checksum([]byte(key)))
	}
	return clean
}
