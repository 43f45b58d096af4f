package jobs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rendelim/internal/api"
	"rendelim/internal/fault"
	"rendelim/internal/gpusim"
	"rendelim/internal/store"
	"rendelim/internal/trace"
	"rendelim/internal/workload"
)

// quietLogger silences pool/store logs so the soaks don't spam CI output.
func quietLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// openTestStore opens a store on dir with logging silenced.
func openTestStore(t *testing.T, dir string, plan *fault.Plan) *store.Store {
	t.Helper()
	preserveStoreArtifacts(t, dir)
	st, err := store.Open(dir, store.Options{
		Fault:  plan,
		Logger: quietLogger(),
	})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return st
}

// preserveStoreArtifacts copies the data dir (snapshots, quarantined files)
// under $STORE_ARTIFACT_DIR when the test fails, so CI can upload the exact
// bytes that broke recovery. No-op otherwise.
func preserveStoreArtifacts(t *testing.T, dir string) {
	t.Cleanup(func() {
		root := os.Getenv("STORE_ARTIFACT_DIR")
		if root == "" || !t.Failed() {
			return
		}
		dst := filepath.Join(root, strings.ReplaceAll(t.Name(), "/", "_"))
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, werr error) error {
			if werr != nil || d.IsDir() {
				return werr
			}
			rel, _ := filepath.Rel(dir, path)
			out := filepath.Join(dst, rel)
			if merr := os.MkdirAll(filepath.Dir(out), 0o755); merr != nil {
				return merr
			}
			b, rerr := os.ReadFile(path)
			if rerr != nil {
				return rerr
			}
			return os.WriteFile(out, b, 0o644)
		})
		if err != nil {
			t.Logf("preserving store artifacts: %v", err)
		} else {
			t.Logf("store artifacts preserved under %s", dst)
		}
	})
}

// TestCrashRecoveryServesCompletedJobs is the cross-restart elimination
// contract: results computed before a crash are served from the store by
// the restarted process, byte-identical, with zero frames re-simulated. A
// completed job leaves nothing pending, and each result is read once, on
// its first request.
func TestCrashRecoveryServesCompletedJobs(t *testing.T) {
	dir := t.TempDir()
	specs := chaosSpecs(t)

	st := openTestStore(t, dir, nil)
	p := NewPool(WithWorkers(4), withCheckpointPeriod(0), WithStore(st), WithLogger(quietLogger()))
	want := runSuite(t, p, specs)
	// Kill, not Close: completion must already be durable — there is no
	// graceful-shutdown flush to rely on.
	p.Kill()

	st2 := openTestStore(t, dir, nil)
	p2 := NewPool(WithWorkers(4), WithStore(st2), WithLogger(quietLogger()))
	defer p2.Close(context.Background())

	if pending := st2.Pending(); len(pending) != 0 {
		t.Fatalf("completed jobs recovered as pending: %+v", pending)
	}
	for i, s := range specs {
		j, err := p2.Submit(s)
		if err != nil {
			t.Fatalf("resubmit %d: %v", i, err)
		}
		if !j.Deduped {
			t.Fatalf("job %d not eliminated by its stored result", i)
		}
		got, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("job %d recovered result differs from pre-crash result", i)
		}
		if got.FBCRC != want[i].FBCRC {
			t.Fatalf("job %d framebuffer CRC differs", i)
		}
	}
	if n := p2.Metrics().FramesSimulated.Load(); n != 0 {
		t.Fatalf("restarted pool re-simulated %d frames for stored results", n)
	}
	if n := st2.Metrics().ResultsLoaded.Load(); n != uint64(len(specs)) {
		t.Fatalf("ResultsLoaded = %d, want %d", n, len(specs))
	}
}

// TestCrashRecoveryFinishesCompletion: a crash between publishing a result
// and removing the spec leaves both files. The next Open finishes the
// completion — nothing pending, no spec or checkpoint left — and the next
// submission of the key is served from disk without simulating.
func TestCrashRecoveryFinishesCompletion(t *testing.T) {
	spec := Spec{Alias: "ccs", Params: workload.Params{Width: 64, Height: 48, Frames: 2, Seed: 1}, Tech: gpusim.RE}
	key := spec.Key().String()
	dir := t.TempDir()
	st := openTestStore(t, dir, nil)
	p := NewPool(WithWorkers(1), WithStore(st), WithLogger(quietLogger()))
	want := runSuite(t, p, []Spec{spec})[0]
	p.Kill()
	rec := store.JobSpec{Alias: spec.Alias, Width: spec.Params.Width, Height: spec.Params.Height,
		Frames: spec.Params.Frames, Seed: spec.Params.Seed, Tech: spec.Tech.String()}
	if err := st.RecordSubmitted(key, rec); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveCheckpoint(key, want.Frames[:1], []byte("ckpt")); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir, nil)
	if pending := st2.Pending(); len(pending) != 0 {
		t.Fatalf("pending = %+v, want nothing: the result completes the job", pending)
	}
	for _, sub := range []string{"specs", "checkpoints"} {
		if _, err := os.Stat(filepath.Join(dir, sub, key+".snap")); !os.IsNotExist(err) {
			t.Errorf("%s/%s.snap survived Open (err %v)", sub, key, err)
		}
	}
	p2 := NewPool(WithWorkers(1), WithStore(st2), WithLogger(quietLogger()))
	defer p2.Close(context.Background())
	j, err := p2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !j.Deduped || !reflect.DeepEqual(got, want) {
		t.Fatalf("deduped %v, result equal %v; want the stored result", j.Deduped, reflect.DeepEqual(got, want))
	}
	if n := p2.Metrics().FramesSimulated.Load(); n != 0 {
		t.Fatalf("simulated %d frames for a stored result", n)
	}
	if n := st2.Metrics().ResultsLoaded.Load(); n != 1 {
		t.Fatalf("ResultsLoaded = %d, want 1", n)
	}
}

// TestEvictedResultServedFromStore: a result the LRU cache evicted is read
// back from the store, not simulated again. With one cache entry, A then B
// evicts A; A's second submission is eliminated from disk.
func TestEvictedResultServedFromStore(t *testing.T) {
	params := workload.Params{Width: 64, Height: 48, Frames: 2, Seed: 1}
	a := Spec{Alias: "ccs", Params: params, Tech: gpusim.RE}
	b := Spec{Alias: "ctr", Params: params, Tech: gpusim.RE}
	st := openTestStore(t, t.TempDir(), nil)
	p := NewPool(WithWorkers(1), WithCacheSize(1), WithStore(st), WithLogger(quietLogger()))
	defer p.Close(context.Background())
	want := runSuite(t, p, []Spec{a, b})
	frames := p.Metrics().FramesSimulated.Load()

	j, err := p.Submit(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !j.Deduped {
		t.Error("evicted key simulated again; its stored result was not read")
	}
	if !reflect.DeepEqual(got, want[0]) {
		t.Error("stored result differs from the simulated one")
	}
	if n := p.Metrics().FramesSimulated.Load(); n != frames {
		t.Errorf("FramesSimulated %d -> %d, want no change", frames, n)
	}
	if n := st.Metrics().ResultsLoaded.Load(); n != 1 {
		t.Errorf("ResultsLoaded = %d, want 1", n)
	}
}

// TestConcurrentSubmissionsReadStoreOnce: concurrent submissions of a key
// whose result only the store holds read the file once — the leader reads
// it, the others join the leader or hit the LRU — and simulate nothing.
func TestConcurrentSubmissionsReadStoreOnce(t *testing.T) {
	spec := Spec{Alias: "ccs", Params: workload.Params{Width: 64, Height: 48, Frames: 2, Seed: 1}, Tech: gpusim.RE}
	dir := t.TempDir()
	st := openTestStore(t, dir, nil)
	p := NewPool(WithWorkers(1), WithStore(st), WithLogger(quietLogger()))
	want := runSuite(t, p, []Spec{spec})[0]
	p.Kill()

	st2 := openTestStore(t, dir, nil)
	p2 := NewPool(WithWorkers(2), WithStore(st2), WithLogger(quietLogger()))
	defer p2.Close(context.Background())
	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := p2.Submit(spec)
			if err != nil {
				t.Error(err)
				return
			}
			got, err := j.Wait(context.Background())
			if err != nil || !j.Deduped || !reflect.DeepEqual(got, want) {
				t.Errorf("deduped %v, err %v, result equal %v", j.Deduped, err, reflect.DeepEqual(got, want))
			}
		}()
	}
	wg.Wait()
	if n := st2.Metrics().ResultsLoaded.Load(); n != 1 {
		t.Errorf("ResultsLoaded = %d, want 1", n)
	}
	if n := p2.Metrics().FramesSimulated.Load(); n != 0 {
		t.Errorf("simulated %d frames", n)
	}
}

// TestDamagedStoredResultSimulates: a stored result that fails its CRC is
// quarantined on its first read and the job simulates, to the same result,
// which replaces the file; the next request is an LRU hit.
func TestDamagedStoredResultSimulates(t *testing.T) {
	spec := Spec{Alias: "ccs", Params: workload.Params{Width: 64, Height: 48, Frames: 2, Seed: 1}, Tech: gpusim.RE}
	dir := t.TempDir()
	st := openTestStore(t, dir, nil)
	p := NewPool(WithWorkers(1), WithStore(st), WithLogger(quietLogger()))
	want := runSuite(t, p, []Spec{spec})[0]
	p.Kill()
	path := filepath.Join(dir, "results", spec.Key().String()+".snap")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir, nil)
	if n := st2.Metrics().SnapshotsQuarantined.Load(); n != 0 {
		t.Fatalf("Open quarantined %d files; it reads no result", n)
	}
	p2 := NewPool(WithWorkers(1), WithStore(st2), WithLogger(quietLogger()))
	defer p2.Close(context.Background())
	for i, wantDeduped := range []bool{false, true} {
		j, err := p2.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		got, err := j.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if j.Deduped != wantDeduped || !reflect.DeepEqual(got, want) {
			t.Fatalf("submission %d: deduped %v (want %v), result equal %v", i, j.Deduped, wantDeduped, reflect.DeepEqual(got, want))
		}
	}
	m := p2.Metrics()
	if m.FramesSimulated.Load() != uint64(len(want.Frames)) || m.CacheHits.Load() != 1 {
		t.Fatalf("frames simulated %d, cache hits %d; want %d and 1", m.FramesSimulated.Load(), m.CacheHits.Load(), len(want.Frames))
	}
	if n := st2.Metrics().SnapshotsQuarantined.Load(); n != 1 {
		t.Fatalf("SnapshotsQuarantined = %d, want 1", n)
	}
	if n := st2.Metrics().ResultsLoaded.Load(); n != 0 {
		t.Fatalf("ResultsLoaded = %d, want 0", n)
	}
	if got, ok := st2.LoadResult(spec.Key().String()); !ok || !reflect.DeepEqual(got, want) {
		t.Fatal("the new result did not replace the damaged file")
	}
}

// TestCrashRecoveryResumesFromCheckpoint is the crash soak of the issue:
// kill the pool mid-job after a frame-boundary checkpoint has been
// persisted, restart on the same data dir, and require the resumed job's
// result — per-frame stats and framebuffer CRC — to be byte-identical to a
// run that was never interrupted. One job is an uploaded-trace spec, so the
// content-addressed blob round-trip is on the recovery path too. The other
// is an ablation spec (memo with a 512-entry LUT): had its config not
// survived in the spec file, the recovered spec would re-sign to another
// key and recovery would drop it, so resuming it proves the config crossed
// the restart.
func TestCrashRecoveryResumesFromCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("crash soak is seconds-long; skipped in -short")
	}
	params := workload.Params{Width: 192, Height: 128, Frames: 12, Seed: 7}
	b, err := workload.ByAlias("ccs")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, b.Build(params)); err != nil {
		t.Fatal(err)
	}
	lut := gpusim.DefaultConfig()
	lut.MemoLUTEntries = 512
	for _, tc := range []struct {
		name string
		spec Spec
	}{
		{"upload", Spec{TraceBin: buf.Bytes(), Tech: gpusim.RE}},
		{"memo-lut512", Spec{Alias: "ccs", Params: params, Tech: gpusim.Memo, Config: &lut}},
	} {
		t.Run(tc.name, func(t *testing.T) { crashAndResume(t, tc.spec, params.Frames) })
	}
}

// crashAndResume kills a store-backed pool once spec's first checkpoint is
// persisted, restarts on the same data dir and checks the resumed result.
func crashAndResume(t *testing.T, spec Spec, frames int) {
	// The never-interrupted reference.
	ref := NewPool(WithWorkers(1), withCheckpointPeriod(0))
	want := runSuite(t, ref, []Spec{spec})[0]
	ref.Close(context.Background())

	dir := t.TempDir()
	st := openTestStore(t, dir, nil)
	p := NewPool(WithWorkers(1), withCheckpointPeriod(0), WithStore(st), WithLogger(quietLogger()))
	if _, err := p.Submit(spec); err != nil {
		t.Fatal(err)
	}
	// Kill as soon as the first checkpoint snapshot is published — the
	// window between first checkpoint (after frame 1) and job completion
	// (the last frame) is wide open.
	ckptPath := st.Dir() + "/checkpoints/" + spec.Key().String() + ".snap"
	deadline := time.Now().Add(30 * time.Second)
	for {
		if _, err := os.Stat(ckptPath); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no checkpoint persisted within 30s")
		}
		time.Sleep(100 * time.Microsecond)
	}
	p.Kill()

	// The job must not have completed — the whole point is dying mid-run.
	st2 := openTestStore(t, dir, nil)
	if _, err := os.Stat(st.Dir() + "/results/" + spec.Key().String() + ".snap"); err == nil {
		t.Skip("job completed before Kill; machine too fast for this window")
	}
	if n := st2.Metrics().JobsRecovered.Load(); n != 1 {
		t.Fatalf("JobsRecovered = %d, want 1", n)
	}
	if n := st2.Metrics().CheckpointsRecovered.Load(); n != 1 {
		t.Fatalf("CheckpointsRecovered = %d, want 1", n)
	}

	p2 := NewPool(WithWorkers(1), withCheckpointPeriod(0), WithStore(st2), WithLogger(quietLogger()))
	defer p2.Close(context.Background())
	// Joining the recovered in-flight job (or hitting the cache once it
	// completes) yields the resumed result.
	j, err := p2.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("recovered job failed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("resumed result differs from uninterrupted run")
	}
	if got.FBCRC != want.FBCRC {
		t.Fatalf("framebuffer CRC after crash-resume = %08x, want %08x", got.FBCRC, want.FBCRC)
	}
	if n := st2.Metrics().JobsResumed.Load(); n != 1 {
		t.Fatalf("JobsResumed = %d, want 1 (job should have resumed from the persisted checkpoint)", n)
	}
	// Resuming from frame k must skip k frames: strictly fewer simulated
	// than the trace length proves the checkpoint was actually used.
	if n := p2.Metrics().FramesSimulated.Load(); n >= uint64(frames) {
		t.Fatalf("restarted pool simulated %d frames; resume saved nothing", n)
	}
}

// TestCheckpointPeriod: the runner checkpoints a job at the first frame
// boundary one period after the attempt began or after its previous
// checkpoint, never after the last frame, and where it checkpoints never
// changes the result. Each case runs one 3-frame job on its own store.
func TestCheckpointPeriod(t *testing.T) {
	spec := Spec{Alias: "ccs", Params: workload.Params{Width: 96, Height: 64, Frames: 3, Seed: 1}, Tech: gpusim.RE}
	run := func(t *testing.T, spec Spec, opts ...Option) (gpusim.Result, *store.Store) {
		t.Helper()
		st := openTestStore(t, t.TempDir(), nil)
		p := NewPool(append([]Option{WithWorkers(1), WithStore(st), WithLogger(quietLogger())}, opts...)...)
		defer p.Close(context.Background())
		return runSuite(t, p, []Spec{spec})[0], st
	}
	checkpointFiles := func(t *testing.T, st *store.Store) int {
		t.Helper()
		files, err := os.ReadDir(filepath.Join(st.Dir(), "checkpoints"))
		if err != nil {
			t.Fatal(err)
		}
		return len(files)
	}
	want, _ := run(t, spec, withCheckpointPeriod(0))

	t.Run("default period", func(t *testing.T) {
		got, st := run(t, spec)
		if n := st.Metrics().SnapshotsWritten.Load(); n != 2 {
			t.Errorf("published %d snapshots, want 2: the spec and the result, and no checkpoint of a job that ends within a period", n)
		}
		if n := checkpointFiles(t, st); n != 0 {
			t.Errorf("%d files left under checkpoints/, want 0", n)
		}
		if !reflect.DeepEqual(got, want) {
			t.Error("result differs from the same job checkpointed at every boundary")
		}
	})

	t.Run("period 0", func(t *testing.T) {
		_, st := run(t, spec, withCheckpointPeriod(0))
		// Boundaries after frames 1 and 2; one after frame 3 would make 5.
		if n := st.Metrics().SnapshotsWritten.Load(); n != 4 {
			t.Errorf("published %d snapshots, want 4: the spec, two checkpoints, none after the last frame, and the result", n)
		}
		if n := checkpointFiles(t, st); n != 0 {
			t.Errorf("%d files left under checkpoints/, want 0: the result supersedes them", n)
		}
	})

	t.Run("frame longer than the period", func(t *testing.T) {
		// An upload whose frame 0 replays its own commands 16 times runs
		// far past a 10 ms period, so the boundary after it checkpoints;
		// frames 1 and 2 draw nothing and end well within the next period,
		// and frame 2 is the last.
		b, err := workload.ByAlias("ccs")
		if err != nil {
			t.Fatal(err)
		}
		tr := b.Build(workload.Params{Width: 128, Height: 96, Frames: 3, Seed: 1})
		var heavy []api.Command
		for i := 0; i < 16; i++ {
			heavy = append(heavy, tr.Frames[0].Commands...)
		}
		tr.Frames[0].Commands = heavy
		tr.Frames[1].Commands, tr.Frames[2].Commands = nil, nil
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		upload := Spec{TraceBin: buf.Bytes(), Tech: gpusim.RE}

		want, _ := run(t, upload, withCheckpointPeriod(0))
		got, st := run(t, upload, withCheckpointPeriod(10*time.Millisecond))
		if n := st.Metrics().SnapshotsWritten.Load(); n != 4 {
			t.Errorf("published %d snapshots, want 4: the trace blob, the spec, one checkpoint and the result", n)
		}
		if !reflect.DeepEqual(got, want) {
			t.Error("result differs from the same job checkpointed at every boundary")
		}
	})
}

// TestCrashRecoveryKeepsSpecFile: a recovered job's spec file is already on
// disk, so recovery resubmits the job without publishing it again — no
// snapshot write, and the file's modification time, which orders the next
// boot's recovery, stays where it was.
func TestCrashRecoveryKeepsSpecFile(t *testing.T) {
	dir := t.TempDir()
	params := workload.Params{Width: 64, Height: 48, Frames: 2, Seed: 1}
	spec := Spec{Alias: "ccs", Params: params, Tech: gpusim.RE}
	key := spec.Key().String()
	st := openTestStore(t, dir, nil)
	rec := store.JobSpec{Alias: spec.Alias, Width: params.Width, Height: params.Height,
		Frames: params.Frames, Seed: params.Seed, Tech: spec.Tech.String()}
	if err := st.RecordSubmitted(key, rec); err != nil {
		t.Fatal(err)
	}
	// Backdate the spec so a republish cannot land on the same mtime.
	path := filepath.Join(dir, "specs", key+".snap")
	mtime := time.Now().Add(-time.Hour).Truncate(time.Second)
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir, nil)
	started, release := make(chan struct{}), make(chan struct{})
	run := func(context.Context, Spec, func(string, time.Duration)) (gpusim.Result, error) {
		close(started)
		<-release
		return gpusim.Result{}, nil
	}
	p := NewPool(WithWorkers(1), WithStore(st2), WithRun(run), WithLogger(quietLogger()))
	defer p.Close(context.Background())
	<-started
	if n := st2.Metrics().SnapshotsWritten.Load(); n != 0 {
		t.Errorf("recovery published %d snapshots before the job ran, want 0", n)
	}
	if fi, err := os.Stat(path); err != nil {
		t.Error(err)
	} else if !fi.ModTime().Equal(mtime) {
		t.Errorf("spec mtime moved from %v to %v", mtime, fi.ModTime())
	}
	close(release)
}

// TestCrashRecoveryDropsFailedJobs: a terminal failure closes the recovery
// window — failed jobs are neither re-run nor served after a restart.
func TestCrashRecoveryDropsFailedJobs(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, nil)
	p := NewPool(WithWorkers(1), WithStore(st), WithLogger(quietLogger()))
	j, err := p.Submit(Spec{Alias: "no-such-benchmark", Tech: gpusim.RE})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err == nil {
		t.Fatal("unknown alias succeeded")
	}
	p.Close(context.Background())

	st2 := openTestStore(t, dir, nil)
	if pending := st2.Pending(); len(pending) != 0 {
		t.Fatalf("failed job recovered: pending=%+v", pending)
	}
	if _, ok := st2.LoadResult(j.Key.String()); ok {
		t.Fatal("failed job has a stored result")
	}
}

// TestCrashRecoveryRejectsMismatchedCheckpoint: a checkpoint file is the
// job's only checkpoint record, so its frame stats and its blob must agree.
// A file holding one frame's stats beside a frame-2 blob is not resumed
// (that would publish a 3-frame result for a 4-frame trace); the job
// re-runs from frame 0 and its result matches an uninterrupted run.
func TestCrashRecoveryRejectsMismatchedCheckpoint(t *testing.T) {
	params := workload.Params{Width: 64, Height: 48, Frames: 4, Seed: 2}
	spec := Spec{Alias: "ccs", Params: params, Tech: gpusim.RE}
	ref := NewPool(WithWorkers(1))
	want := runSuite(t, ref, []Spec{spec})[0]
	ref.Close(context.Background())

	b, err := workload.ByAlias(spec.Alias)
	if err != nil {
		t.Fatal(err)
	}
	tr := b.Build(params)
	sim, err := gpusim.New(tr, spec.config())
	if err != nil {
		t.Fatal(err)
	}
	var frames []gpusim.Stats
	for i := 0; i < 2; i++ {
		frames = append(frames, sim.RunFrame(&tr.Frames[i]))
	}

	dir := t.TempDir()
	st := openTestStore(t, dir, nil)
	key := spec.Key().String()
	rec := store.JobSpec{Alias: spec.Alias, Width: params.Width, Height: params.Height,
		Frames: params.Frames, Seed: params.Seed, Tech: spec.Tech.String()}
	if err := st.RecordSubmitted(key, rec); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveCheckpoint(key, frames[:1], sim.Checkpoint()); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir, nil)
	if n := st2.Metrics().CheckpointsRecovered.Load(); n != 1 {
		t.Fatalf("CheckpointsRecovered = %d, want 1", n)
	}
	p := NewPool(WithWorkers(1), WithStore(st2), WithLogger(quietLogger()))
	defer p.Close(context.Background())
	j, err := p.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered job: %d frames, FB CRC %08x; want %d frames, %08x",
			len(got.Frames), got.FBCRC, len(want.Frames), want.FBCRC)
	}
	if n := st2.Metrics().JobsResumed.Load(); n != 0 {
		t.Fatalf("JobsResumed = %d, want 0", n)
	}
}

// TestCrashSoakWithStoreFaults runs the suite with seeded store.write /
// store.sync / store.rename faults firing throughout. Live results must
// stay correct (durability degrades, correctness never), and whatever the
// damaged store recovers after a restart must be byte-identical to the
// fault-free results — injected disk failures lose writes, never corrupt
// them.
func TestCrashSoakWithStoreFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("store-fault soak is seconds-long; skipped in -short")
	}
	specs := chaosSpecs(t)

	base := NewPool(WithWorkers(4), withCheckpointPeriod(0))
	want := runSuite(t, base, specs)
	base.Close(context.Background())
	wantByKey := make(map[string]gpusim.Result)
	for i, s := range specs {
		wantByKey[s.Key().String()] = want[i]
	}

	for _, seed := range []int64{3, 11} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			plan := fault.New(seed).
				With(fault.SiteStoreWrite, fault.Site{Prob: 0.2}).
				With(fault.SiteStoreSync, fault.Site{Prob: 0.2}).
				With(fault.SiteStoreRename, fault.Site{Prob: 0.2})
			dir := t.TempDir()
			st := openTestStore(t, dir, plan)
			p := NewPool(WithWorkers(4), withCheckpointPeriod(0), WithStore(st), WithLogger(quietLogger()))
			got := runSuite(t, p, specs)
			for i := range specs {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("job %d live result wrong under store faults", i)
				}
			}
			fired := plan.Fired(fault.SiteStoreWrite) + plan.Fired(fault.SiteStoreSync) + plan.Fired(fault.SiteStoreRename)
			if fired == 0 {
				t.Fatalf("seed %d injected nothing; soak is vacuous", seed)
			}
			p.Kill()

			// Restart fault-free: everything that survived must be exact.
			st2 := openTestStore(t, dir, nil)
			for key, wantRes := range wantByKey {
				if res, ok := st2.LoadResult(key); ok && !reflect.DeepEqual(res, wantRes) {
					t.Fatalf("stored result %s corrupted by store faults", key)
				}
			}
			for _, pj := range st2.Pending() {
				if _, ok := wantByKey[pj.Key]; !ok {
					t.Fatalf("recovered unknown key %s", pj.Key)
				}
			}
			if n := st2.Metrics().SnapshotsQuarantined.Load(); n != 0 {
				t.Fatalf("store faults left %d corrupt snapshots; failed writes must not publish", n)
			}
		})
	}
}
