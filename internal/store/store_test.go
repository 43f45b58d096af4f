package store

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rendelim/internal/fault"
	"rendelim/internal/gpusim"
)

func quietOpts() Options {
	return Options{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
}

func testResult(n int) gpusim.Result {
	res := gpusim.Result{Technique: gpusim.RE, Name: fmt.Sprintf("res-%d", n), FBCRC: uint32(n) * 0x9e37}
	for i := 0; i < 3; i++ {
		res.Frames = append(res.Frames, gpusim.Stats{Frames: 1, TilesTotal: uint64(n*10 + i)})
		res.Total.Add(res.Frames[i])
	}
	return res
}

// The headline contract: a store reopened on the same directory hands back
// interrupted jobs with their checkpoints and nothing for completed or
// failed jobs, and serves completed results verbatim from LoadResult. A
// pending job's checkpoint is its checkpoint file, found by key.
func TestStoreRecovery(t *testing.T) {
	t.Run("lifecycle", testRecoveryLifecycle)
	t.Run("checkpoint file without a record", testRecoveryCheckpointWithoutRecord)
	t.Run("no checkpoint file", testRecoveryNoCheckpointFile)
}

func testRecoveryLifecycle(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}

	specA := JobSpec{Alias: "ccs", Width: 64, Height: 48, Frames: 4, Seed: 1, Tech: "re"}
	resA := testResult(1)
	if err := s.RecordSubmitted("aaaa0001-bbbb0001", specA); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveResult("aaaa0001-bbbb0001", resA); err != nil {
		t.Fatal(err)
	}

	specB := JobSpec{Alias: "mot", Width: 32, Height: 32, Frames: 8, Seed: 2, Tech: "memo"}
	ckptB := []byte("pretend-encoded-checkpoint")
	framesB := []gpusim.Stats{{Frames: 1, TilesTotal: 7}, {Frames: 1, TilesTotal: 9}}
	if err := s.RecordSubmitted("aaaa0002-bbbb0002", specB); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCheckpoint("aaaa0002-bbbb0002", framesB, ckptB); err != nil {
		t.Fatal(err)
	}

	if err := s.RecordSubmitted("aaaa0003-bbbb0003", JobSpec{Alias: "ccs", Tech: "re"}); err != nil {
		t.Fatal(err)
	}
	if err := s.RecordFailed("aaaa0003-bbbb0003"); err != nil {
		t.Fatal(err)
	}

	specD := JobSpec{Alias: "fly", Width: 16, Height: 16, Frames: 2, Seed: 4, Tech: "te"}
	if err := s.RecordSubmitted("aaaa0004-bbbb0004", specD); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	pending := r.Pending()
	if len(pending) != 2 {
		t.Fatalf("recovered %d pending jobs, want 2 (checkpointed B + submitted-only D): %+v", len(pending), pending)
	}
	// Submission order: B before D.
	b, d := pending[0], pending[1]
	if b.Key != "aaaa0002-bbbb0002" || b.Spec != specB || len(b.Frames) != 2 ||
		!reflect.DeepEqual(b.Frames, framesB) || string(b.Checkpoint) != string(ckptB) {
		t.Fatalf("pending B = %+v", b)
	}
	if d.Key != "aaaa0004-bbbb0004" || d.Spec != specD || len(d.Frames) != 0 || d.Checkpoint != nil {
		t.Fatalf("pending D = %+v", d)
	}

	m := r.Metrics()
	if m.ResultsLoaded.Load() != 0 || m.CheckpointsRecovered.Load() != 1 || m.JobsRecovered.Load() != 2 {
		t.Fatalf("recovery metrics: results=%d ckpts=%d jobs=%d",
			m.ResultsLoaded.Load(), m.CheckpointsRecovered.Load(), m.JobsRecovered.Load())
	}
	if got, ok := r.LoadResult("aaaa0001-bbbb0001"); !ok {
		t.Fatal("completed result not stored")
	} else if !reflect.DeepEqual(got, resA) {
		t.Fatalf("stored result differs:\n got %+v\nwant %+v", got, resA)
	}
	if n := m.ResultsLoaded.Load(); n != 1 {
		t.Fatalf("ResultsLoaded = %d, want 1", n)
	}
	if _, ok := r.LoadResult("aaaa0004-bbbb0004"); ok {
		t.Fatal("pending job has a stored result")
	}
	if m.SnapshotsQuarantined.Load() != 0 {
		t.Fatal("clean recovery reported damage")
	}
}

// A checkpoint snapshot published straight to its path beside a spec is
// recovered with it, and its frame is the number of per-frame stats it
// holds.
func testRecoveryCheckpointWithoutRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	key := "c0de0001-c0de0002"
	spec := JobSpec{Alias: "ccs", Width: 64, Height: 48, Frames: 6, Seed: 3, Tech: "re"}
	frames := []gpusim.Stats{{Frames: 1, TilesTotal: 1}, {Frames: 1, TilesTotal: 2}, {Frames: 1, TilesTotal: 3}}
	ckpt := []byte("frame-3-checkpoint")
	s.RecordSubmitted(key, spec)
	body, err := checkpointBody(frames, ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.writeSnapshot(s.checkpointPath(key), body); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	pending := r.Pending()
	if len(pending) != 1 {
		t.Fatalf("pending = %+v", pending)
	}
	p := pending[0]
	if p.Key != key || p.Spec != spec || len(p.Frames) != len(frames) ||
		!reflect.DeepEqual(p.Frames, frames) || string(p.Checkpoint) != string(ckpt) {
		t.Fatalf("pending = %+v, want frame %d with its stats and blob", p, len(frames))
	}
	if n := r.Metrics().CheckpointsRecovered.Load(); n != 1 {
		t.Fatalf("CheckpointsRecovered = %d, want 1", n)
	}
}

// A pending job that never reached a checkpoint has no file: it resumes
// from frame 0, and the missing file is not damage.
func testRecoveryNoCheckpointFile(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	key := "0ff10001-0ff10002"
	spec := JobSpec{Alias: "ccs", Width: 32, Height: 32, Frames: 3, Seed: 8, Tech: "re"}
	s.RecordSubmitted(key, spec)

	var logs bytes.Buffer
	r, err := Open(dir, Options{Logger: slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelWarn}))})
	if err != nil {
		t.Fatal(err)
	}
	pending := r.Pending()
	if len(pending) != 1 {
		t.Fatalf("pending = %+v", pending)
	}
	if p := pending[0]; p.Key != key || p.Spec != spec || p.Frames != nil || p.Checkpoint != nil {
		t.Fatalf("pending = %+v, want frame 0 with no checkpoint", p)
	}
	if logs.Len() != 0 {
		t.Fatalf("missing checkpoint file logged a warning: %s", logs.String())
	}
	m := r.Metrics()
	if m.SnapshotsQuarantined.Load() != 0 || m.CheckpointsRecovered.Load() != 0 || len(r.QuarantinedFiles()) != 0 {
		t.Fatalf("missing checkpoint file counted: quarantined=%d recovered=%d",
			m.SnapshotsQuarantined.Load(), m.CheckpointsRecovered.Load())
	}
}

// SaveResult removes the superseded checkpoint and the spec, and a
// completed job is not recovered as pending.
func TestStoreCompletionSupersedesCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	key := "cafe0001-cafe0002"
	s.RecordSubmitted(key, JobSpec{Alias: "ccs", Tech: "re"})
	s.SaveCheckpoint(key, []gpusim.Stats{{Frames: 1}}, []byte("ckpt"))
	if err := s.SaveResult(key, testResult(9)); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(s.checkpointPath(key)); !os.IsNotExist(err) {
		t.Fatal("checkpoint snapshot not removed after completion")
	}
	if _, err := os.Stat(s.specPath(key)); !os.IsNotExist(err) {
		t.Fatal("spec snapshot not removed after completion")
	}

	r, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	if pending := r.Pending(); len(pending) != 0 {
		t.Fatalf("completed job recovered as pending: %+v", pending)
	}
	if _, ok := r.LoadResult(key); !ok {
		t.Fatal("completed result missing")
	}
}

// A published result completes its job, with or without the removals
// after it. A crash between SaveResult's publish and its removal of the
// spec leaves a spec, a checkpoint and a result of one key: Open finishes
// the completion — it removes the spec and the checkpoint and hands
// nothing back — and the result is served from disk.
func TestStoreResultFileAloneCompletesJob(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	key := "0001beef-0002beef"
	if err := s.RecordSubmitted(key, JobSpec{Alias: "ccs", Width: 32, Height: 32, Frames: 3, Tech: "re"}); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveCheckpoint(key, []gpusim.Stats{{Frames: 1}}, []byte("ckpt")); err != nil {
		t.Fatal(err)
	}
	want := testResult(5)
	if err := s.saveJSON(s.resultPath(key), want); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	if pending := r.Pending(); len(pending) != 0 {
		t.Fatalf("pending = %+v, want nothing: the result completes the job", pending)
	}
	for _, path := range []string{r.specPath(key), r.checkpointPath(key)} {
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s survived Open (err %v)", path, err)
		}
	}
	if n := r.Metrics().JobsRecovered.Load(); n != 0 {
		t.Errorf("JobsRecovered = %d, want 0", n)
	}
	if got, ok := r.LoadResult(key); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("LoadResult = %+v, %v; want the published result", got, ok)
	}
}

// Open reads no result file: a data dir full of damaged results and no
// specs opens with nothing quarantined and nothing pending, however many
// results it holds.
func TestStoreOpenReadsNoResult(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, quietOpts()); err != nil {
		t.Fatal(err)
	}
	const n = 2000
	for i := 0; i < n; i++ {
		path := filepath.Join(dir, "results", fmt.Sprintf("%08x-%08x.snap", i, i))
		if err := os.WriteFile(path, []byte("RESN damaged"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	if q := r.Metrics().SnapshotsQuarantined.Load(); q != 0 {
		t.Fatalf("Open quarantined %d result files; it must read none", q)
	}
	if pending := r.Pending(); len(pending) != 0 {
		t.Fatalf("pending = %d jobs, want 0", len(pending))
	}
}

// LoadResult: a missing file is a silent miss; a damaged one is
// quarantined, logged and a miss; an intact one is served and counted.
func TestStoreLoadResult(t *testing.T) {
	var logs bytes.Buffer
	s, err := Open(t.TempDir(), Options{Logger: slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelWarn}))})
	if err != nil {
		t.Fatal(err)
	}
	const key = "dead0001-beef0001"
	if _, ok := s.LoadResult(key); ok || logs.Len() != 0 {
		t.Fatalf("missing result: ok %v, logs %q; want a silent miss", ok, logs.String())
	}

	if err := s.SaveResult(key, testResult(2)); err != nil {
		t.Fatal(err)
	}
	path := s.resultPath(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, flipped(raw, len(raw)/2, 0x20), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.LoadResult(key); ok {
		t.Fatal("damaged result served")
	}
	if n := s.Metrics().SnapshotsQuarantined.Load(); n != 1 {
		t.Fatalf("SnapshotsQuarantined = %d, want 1", n)
	}
	if q := s.QuarantinedFiles(); len(q) != 1 || q[0] != path+QuarantineSuffix {
		t.Fatalf("QuarantinedFiles = %v", q)
	}
	if !strings.Contains(logs.String(), key) {
		t.Fatalf("damaged result not logged: %q", logs.String())
	}

	want := testResult(3)
	if err := s.SaveResult(key, want); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.LoadResult(key); !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("LoadResult = %+v, %v; want the replacement", got, ok)
	}
	if n := s.Metrics().ResultsLoaded.Load(); n != 1 {
		t.Fatalf("ResultsLoaded = %d, want 1", n)
	}
}

// A corrupt checkpoint costs only the checkpoint: the job resumes from
// frame 0 instead of being dropped.
func TestStoreCorruptCheckpointFallsBackToFrameZero(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	key := "feed0001-f00d0001"
	spec := JobSpec{Alias: "mot", Width: 32, Height: 32, Frames: 6, Seed: 3, Tech: "memo"}
	s.RecordSubmitted(key, spec)
	s.SaveCheckpoint(key, []gpusim.Stats{{Frames: 1}}, []byte("encoded"))
	path := s.checkpointPath(key)

	raw, _ := os.ReadFile(path)
	raw[len(raw)-1] ^= 0xff
	os.WriteFile(path, raw, 0o644)

	r, err := Open(dir, quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	pending := r.Pending()
	if len(pending) != 1 {
		t.Fatalf("pending = %+v", pending)
	}
	p := pending[0]
	if p.Key != key || p.Spec != spec || len(p.Frames) != 0 || p.Checkpoint != nil {
		t.Fatalf("corrupt checkpoint not degraded to frame 0: %+v", p)
	}
	if r.Metrics().CheckpointsRecovered.Load() != 0 || r.Metrics().SnapshotsQuarantined.Load() != 1 {
		t.Fatal("checkpoint damage not quantified")
	}
}

// Trace blobs are content-addressed; damage is detected both by the
// snapshot CRC and the address itself.
func TestStoreTraceBlobs(t *testing.T) {
	s, err := Open(t.TempDir(), quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	bin := []byte("not really a trace but content is content")
	sum, err := s.SaveTrace(bin)
	if err != nil {
		t.Fatal(err)
	}
	// Idempotent re-save.
	if sum2, err := s.SaveTrace(bin); err != nil || sum2 != sum {
		t.Fatalf("re-save: sum=%08x err=%v", sum2, err)
	}
	got, err := s.LoadTrace(sum)
	if err != nil || string(got) != string(bin) {
		t.Fatalf("LoadTrace = %q, %v", got, err)
	}
	if _, err := s.LoadTrace(sum ^ 1); err == nil {
		t.Fatal("LoadTrace of absent blob succeeded")
	}
}

// Seeded store.* faults make writes fail, but failed writes must never
// corrupt what a later open recovers: every successfully-saved result comes
// back verbatim, every failed save is absent, nothing in between, and no
// completed job is pending.
func TestStoreFaultInjectionNeverCorruptsState(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			dir := t.TempDir()
			plan := fault.New(seed).
				With(fault.SiteStoreWrite, fault.Site{Prob: 0.25}).
				With(fault.SiteStoreSync, fault.Site{Prob: 0.25}).
				With(fault.SiteStoreRename, fault.Site{Prob: 0.25})
			opts := quietOpts()
			opts.Fault = plan
			s, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}

			want := make(map[string]gpusim.Result)
			const n = 40
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("%08x-%08x", i, i*3)
				res := testResult(i)
				// Spec and checkpoint writes may fail under injection;
				// only a successful SaveResult promises recovery.
				s.RecordSubmitted(key, JobSpec{Alias: "ccs", Tech: "re", Seed: int64(i)})
				if i%3 == 0 {
					s.SaveCheckpoint(key, []gpusim.Stats{{Frames: 1}}, []byte("ck"))
				}
				if err := s.SaveResult(key, res); err == nil {
					want[key] = res
				}
			}
			injected := plan.Fired(fault.SiteStoreWrite) + plan.Fired(fault.SiteStoreSync) + plan.Fired(fault.SiteStoreRename)
			if injected == 0 {
				t.Fatalf("seed %d injected no faults; test is vacuous", seed)
			}

			r, err := Open(dir, quietOpts())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				key := fmt.Sprintf("%08x-%08x", i, i*3)
				got, ok := r.LoadResult(key)
				res, saved := want[key]
				switch {
				case saved && !ok:
					t.Fatalf("successfully saved result %s lost", key)
				case saved && !reflect.DeepEqual(got, res):
					t.Fatalf("stored result %s differs", key)
				case !saved && ok:
					t.Fatalf("stored result %s was never successfully saved", key)
				}
			}
			for _, pj := range r.Pending() {
				if _, saved := want[pj.Key]; saved {
					t.Fatalf("completed job %s recovered as pending", pj.Key)
				}
			}
			// Failed writes never leave damage for recovery to quarantine —
			// the atomic-publish discipline means a fault loses the write,
			// not the store.
			if n := r.Metrics().SnapshotsQuarantined.Load(); n != 0 {
				t.Fatalf("recovery quarantined %d snapshots after clean-failure faults", n)
			}
		})
	}
}

// Keys that are not filesystem-safe are flattened, collision-proofed, and
// still round-trip.
func TestStoreSanitizesHostileKeys(t *testing.T) {
	s, err := Open(t.TempDir(), quietOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"../../etc/passwd", "a/b", "", "nul\x00byte"} {
		p := s.resultPath(key)
		if rel, err := filepath.Rel(filepath.Join(s.Dir(), "results"), p); err != nil || strings.Contains(rel, "..") || strings.ContainsRune(rel, os.PathSeparator) {
			t.Fatalf("hostile key %q escaped: %s", key, p)
		}
	}
	if s.resultPath("../../x") == s.resultPath("____x") {
		t.Fatal("sanitized keys collide")
	}
}
