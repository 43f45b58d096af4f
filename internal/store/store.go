// Package store is the durability layer under the resvc job service. Each
// fact about a job is one self-checking snapshot file — its spec, its
// completed result, its last frame-boundary checkpoint, an uploaded trace
// blob — written with temp-file + fsync + atomic-rename discipline, so there
// is no log to replay and no second copy of a job to reconcile.
//
// The point is that Rendering Elimination's memoization survives kill -9:
// on startup Open scans the result and spec files (quarantining corrupt
// ones instead of refusing to boot), completed results re-populate the jobs
// result cache so cross-restart submissions are eliminated as cache hits,
// and jobs that were mid-flight when the process died are handed back with
// their last persisted checkpoint so they resume from that frame boundary
// rather than frame 0.
//
// Directory layout under the data dir:
//
//	specs/<key>.snap         submitted JobSpec (JSON body); kept after completion
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

// legacyWAL is the write-ahead log that older versions kept beside the
// snapshot directories. Open ignores it: its results are files under
// results/ already, and its pending jobs are not resumed.
const legacyWAL = "wal.log"

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

// PendingJob is an interrupted job: its spec file survived and no readable
// result did.
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

// Recovery is everything Open reconstructed from disk.
type Recovery struct {
	// Results maps job keys to their recovered completed results, for
	// re-populating the jobs LRU cache.
	Results map[string]gpusim.Result
	// ResultOrder lists Results' keys oldest first, so cache
	// re-population preserves LRU recency.
	ResultOrder []string
	// Pending lists interrupted jobs to resubmit, oldest submission first.
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

// Store is the durability layer. All methods are safe for concurrent use:
// every write publishes or removes whole files.
type Store struct {
	dir     string
	fault   *fault.Plan
	log     *slog.Logger
	metrics *Metrics

	recovered Recovery
}

// Open opens (creating if needed) the data directory, loads and verifies
// the result, spec and checkpoint snapshots, and returns the store ready
// for writes. A readable result is a completed job; a spec without one is
// a pending job, with its checkpoint when there is a readable one. Damage
// is absorbed, counted in Metrics and logged: corrupt snapshots are
// quarantined, so a job whose result is unreadable is re-run from its spec.
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
	if _, err := os.Stat(filepath.Join(dir, legacyWAL)); err == nil {
		log.Warn("store: ignoring an older version's write-ahead log; its results recover from results/, its pending jobs do not resume",
			"path", filepath.Join(dir, legacyWAL))
	}

	resultKeys, err := s.keysByAge("results")
	if err != nil {
		return nil, err
	}
	s.recovered.Results = make(map[string]gpusim.Result, len(resultKeys))
	for _, key := range resultKeys {
		var res gpusim.Result
		if err := s.loadJSON(s.resultPath(key), &res); err != nil {
			s.log.Warn("store: result unreadable; the job re-runs if its spec survives", "key", key, "err", err)
			continue
		}
		s.recovered.Results[key] = res
		s.recovered.ResultOrder = append(s.recovered.ResultOrder, key)
		s.metrics.ResultsRecovered.Add(1)
	}

	specKeys, err := s.keysByAge("specs")
	if err != nil {
		return nil, err
	}
	for _, key := range specKeys {
		if _, done := s.recovered.Results[key]; done {
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
		s.recovered.Pending = append(s.recovered.Pending, pj)
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

// Recovered returns what Open reconstructed. The caller owns the value;
// the store never mutates it after Open.
func (s *Store) Recovered() Recovery { return s.recovered }

// RecordSubmitted publishes key's spec, which recovery needs to re-run the
// job. The file outlives the job's completion, so a result that later
// fails its CRC is re-run from it.
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
// the job complete. The job's checkpoint, now superseded, is removed.
func (s *Store) SaveResult(key string, res gpusim.Result) error {
	if err := s.saveJSON(s.resultPath(key), res); err != nil {
		return err
	}
	// Best effort: a checkpoint left behind is resumed only if the result
	// is later quarantined, and the key signs everything it resumes.
	_ = s.remove(s.checkpointPath(key))
	return nil
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
