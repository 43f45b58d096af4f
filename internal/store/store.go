// Package store is the durability layer under the resvc job service. Each
// fact about a job is one self-checking snapshot file — its spec, its
// completed result, its last frame-boundary checkpoint, an uploaded trace
// blob — written with temp-file + fsync + atomic-rename discipline, so there
// is no log to replay and no second copy of a job to reconcile.
//
// The point is that Rendering Elimination's memoization survives kill -9.
// specs/ holds exactly the pending jobs: on startup Open reads only those
// and their checkpoints (quarantining corrupt ones instead of refusing to
// boot), and jobs that were mid-flight when the process died are handed
// back with their last persisted checkpoint, so they resume from that frame
// boundary rather than frame 0. results/ is a cache tier under the jobs
// result cache: a job key signs everything its result depends on, so Open
// never reads a result, and LoadResult reads one when the in-memory cache
// misses.
//
// Directory layout under the data dir:
//
//	specs/<key>.snap         submitted JobSpec (JSON body); removed when the job ends
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
	"time"

	"rendelim/internal/crc"
	"rendelim/internal/fault"
	"rendelim/internal/gpusim"
	"rendelim/internal/wire"
)

// JobSpec is the serializable identity of a job — enough to rebuild and
// re-run it in a fresh process. Trace uploads are referenced by the CRC32 of
// their bytes (the content address of the blob in traces/), never inlined.
// A nil Config means the default config and is left out of the spec file.
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

// PendingJob is an interrupted job: its spec file survived and no result
// file has its key.
type PendingJob struct {
	Key  string
	Spec JobSpec
	// Frames holds the per-frame stats of the job's checkpoint file, whose
	// count is the checkpoint's frame boundary, and Checkpoint the encoded
	// gpusim checkpoint blob. Both are nil when there is no readable
	// checkpoint: the job starts over.
	Frames     []gpusim.Stats
	Checkpoint []byte
}

// Options configures Open.
type Options struct {
	// Fault, when non-nil, arms the store.write / store.sync /
	// store.rename injection sites. Nil costs nothing.
	Fault *fault.Plan
	// Logger receives recovery and quarantine events; default slog.Default.
	Logger *slog.Logger
}

// Store is the durability layer. All methods are safe for concurrent use:
// every write publishes or removes whole files.
type Store struct {
	dir     string
	fault   *fault.Plan
	log     *slog.Logger
	metrics *Metrics

	pending []PendingJob
}

// Open opens (creating if needed) the data directory and loads the
// pending jobs: each spec, with its checkpoint when there is a readable
// one. A spec beside a result file of its key is a completion that a crash
// interrupted: Open finishes it, removing the spec and the checkpoint, and
// hands nothing back. Open reads no result. Damage is absorbed, counted in
// Metrics and logged: a corrupt spec is quarantined and its job dropped, a
// corrupt checkpoint quarantined and its job resumed from frame 0.
func Open(dir string, opts Options) (*Store, error) {
	log := opts.Logger
	if log == nil {
		log = slog.Default()
	}
	for _, d := range []string{dir, filepath.Join(dir, "specs"), filepath.Join(dir, "results"), filepath.Join(dir, "checkpoints"), filepath.Join(dir, "traces")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("store: mkdir %s: %w", d, err)
		}
	}
	s := &Store{dir: dir, fault: opts.Fault, log: log, metrics: newMetrics()}

	specKeys, err := s.keysByAge("specs")
	if err != nil {
		return nil, err
	}
	for _, key := range specKeys {
		if _, err := os.Stat(s.resultPath(key)); err == nil {
			s.discard(key)
			continue
		}
		pj := PendingJob{Key: key}
		if err := s.loadJSON(s.specPath(key), &pj.Spec); err != nil {
			s.log.Warn("store: interrupted job's spec unreadable; dropped", "key", key, "err", err)
			continue
		}
		// A checkpoint file left by an earlier run of the same key is as
		// good as a fresh one: the key signs trace, config and model, and
		// Resume re-checks the blob.
		frames, blob, err := s.loadCheckpoint(key)
		switch {
		case errors.Is(err, fs.ErrNotExist):
			// Never checkpointed: resume from frame 0.
		case err != nil:
			s.log.Warn("store: checkpoint unreadable; resuming from frame 0", "key", key, "err", err)
		default:
			pj.Frames = frames
			pj.Checkpoint = blob
			s.metrics.CheckpointsRecovered.Add(1)
		}
		s.pending = append(s.pending, pj)
		s.metrics.JobsRecovered.Add(1)
	}
	return s, nil
}

// keysByAge lists the keys of the snapshot files under sub, oldest first
// by modification time. File times are coarse, so ties — files written
// within one clock tick — fall back to key order.
func (s *Store) keysByAge(sub string) ([]string, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, sub))
	if err != nil {
		return nil, fmt.Errorf("store: list %s: %w", sub, err)
	}
	type file struct {
		key string
		mod time.Time
	}
	files := make([]file, 0, len(entries))
	for _, e := range entries {
		key, ok := strings.CutSuffix(e.Name(), ".snap")
		if !ok || !e.Type().IsRegular() {
			continue // temp and quarantined files
		}
		info, err := e.Info()
		if err != nil {
			return nil, fmt.Errorf("store: stat %s: %w", e.Name(), err)
		}
		files = append(files, file{key, info.ModTime()})
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mod.Equal(files[j].mod) {
			return files[i].mod.Before(files[j].mod)
		}
		return files[i].key < files[j].key
	})
	keys := make([]string, len(files))
	for i, f := range files {
		keys[i] = f.key
	}
	return keys, nil
}

// Dir returns the data directory the store was opened on.
func (s *Store) Dir() string { return s.dir }

// Metrics exposes the store counters.
func (s *Store) Metrics() *Metrics { return s.metrics }

// Pending returns the interrupted jobs Open found, oldest submission
// first. The caller owns the slice; the store never mutates it after Open.
func (s *Store) Pending() []PendingJob { return s.pending }

// RecordSubmitted publishes key's spec, which recovery needs to re-run the
// job. The file lives until the job ends: SaveResult and RecordFailed
// remove it, so specs/ holds exactly the pending jobs.
func (s *Store) RecordSubmitted(key string, spec JobSpec) error {
	return s.saveJSON(s.specPath(key), spec)
}

// RecordFailed closes key's recovery window after a terminal failure: it
// removes the job's checkpoint and spec, and returns once the spec's
// removal is durable.
func (s *Store) RecordFailed(key string) error {
	if err := s.remove(s.checkpointPath(key)); err != nil {
		return err
	}
	return s.remove(s.specPath(key))
}

// SaveResult atomically publishes a completed result; the file alone marks
// the job complete. The job's checkpoint and spec, now superseded, are
// removed.
func (s *Store) SaveResult(key string, res gpusim.Result) error {
	if err := s.saveJSON(s.resultPath(key), res); err != nil {
		return err
	}
	s.discard(key)
	return nil
}

// discard removes a completed job's checkpoint, then its spec. The
// removals need not be durable, nor even succeed: Open repeats them for
// every spec that sits beside a result file of its key.
func (s *Store) discard(key string) {
	_ = os.Remove(s.checkpointPath(key))
	_ = os.Remove(s.specPath(key))
}

// LoadResult reads key's stored result. A missing file is a silent miss.
// A damaged one is quarantined, logged and also a miss: the job simulates,
// and its new result replaces the file.
func (s *Store) LoadResult(key string) (gpusim.Result, bool) {
	var res gpusim.Result
	if err := s.loadJSON(s.resultPath(key), &res); err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.log.Warn("store: stored result unreadable; the job simulates", "key", key, "err", err)
		}
		return gpusim.Result{}, false
	}
	s.metrics.ResultsLoaded.Add(1)
	return res, true
}

// saveJSON publishes v's JSON encoding as the snapshot at path.
func (s *Store) saveJSON(path string, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: marshal %s: %w", filepath.Base(path), err)
	}
	return s.writeSnapshot(path, body)
}

// loadJSON reads the snapshot at path and decodes its JSON body into v. A
// body that passes its CRC but does not decode is quarantined like CRC
// damage.
func (s *Store) loadJSON(path string, v any) error {
	body, err := s.readSnapshot(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		s.quarantine(path, err)
		return fmt.Errorf("store: decode %s: %w", filepath.Base(path), err)
	}
	return nil
}

// remove deletes the file at path and fsyncs its directory, so the removal
// survives power loss. A missing file is already removed.
func (s *Store) remove(path string) error {
	if err := os.Remove(path); err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil
		}
		return fmt.Errorf("store: remove: %w", err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		s.metrics.SyncErrors.Add(1)
		return err
	}
	return nil
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
// it, whose count is the checkpoint's frame. Open finds the file by key.
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

func (s *Store) specPath(key string) string {
	return filepath.Join(s.dir, "specs", sanitizeKey(key)+".snap")
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
