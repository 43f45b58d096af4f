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
	"testing"
	"time"

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

// preserveStoreArtifacts copies the data dir (WAL, snapshots, quarantined
// files) under $STORE_ARTIFACT_DIR when the test fails, so CI can upload
// the exact bytes that broke recovery. No-op otherwise.
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
// contract: results computed before a crash are served as cache hits by the
// restarted process, byte-identical, with zero frames re-simulated.
func TestCrashRecoveryServesCompletedJobs(t *testing.T) {
	dir := t.TempDir()
	specs := chaosSpecs(t)

	st := openTestStore(t, dir, nil)
	p := NewPool(WithWorkers(4), WithCheckpointInterval(1), WithStore(st), WithLogger(quietLogger()))
	want := runSuite(t, p, specs)
	// Kill, not Close: completion must already be durable — there is no
	// graceful-shutdown flush to rely on.
	p.Kill()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir, nil)
	defer st2.Close()
	p2 := NewPool(WithWorkers(4), WithStore(st2), WithLogger(quietLogger()))
	defer p2.Close(context.Background())

	if n := st2.Metrics().ResultsRecovered.Load(); n != uint64(len(specs)) {
		t.Fatalf("ResultsRecovered = %d, want %d", n, len(specs))
	}
	for i, s := range specs {
		j, err := p2.Submit(s)
		if err != nil {
			t.Fatalf("resubmit %d: %v", i, err)
		}
		if !j.Deduped {
			t.Fatalf("job %d not eliminated by recovered cache", i)
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
		t.Fatalf("restarted pool re-simulated %d frames for recovered results", n)
	}
}

// TestCrashRecoveryResumesFromCheckpoint is the crash soak of the issue:
// kill the pool mid-job after a frame-boundary checkpoint has been
// persisted, restart on the same data dir, and require the resumed job's
// result — per-frame stats and framebuffer CRC — to be byte-identical to a
// run that was never interrupted. The interrupted job is an uploaded-trace
// spec, so the content-addressed blob round-trip is on the recovery path
// too.
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
	spec := Spec{TraceBin: buf.Bytes(), Tech: gpusim.RE}

	// The never-interrupted reference.
	ref := NewPool(WithWorkers(1), WithCheckpointInterval(1))
	want := runSuite(t, ref, []Spec{spec})[0]
	ref.Close(context.Background())

	dir := t.TempDir()
	st := openTestStore(t, dir, nil)
	p := NewPool(WithWorkers(1), WithCheckpointInterval(1), WithStore(st), WithLogger(quietLogger()))
	if _, err := p.Submit(spec); err != nil {
		t.Fatal(err)
	}
	// Kill as soon as the first checkpoint snapshot is published — the
	// window between first checkpoint (after frame 1) and job completion
	// (frame 12) is wide open.
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
	st.Close()

	// The job must not have completed — the whole point is dying mid-run.
	st2 := openTestStore(t, dir, nil)
	defer st2.Close()
	if n := st2.Metrics().ResultsRecovered.Load(); n != 0 {
		t.Skip("job completed before Kill; machine too fast for this window")
	}
	if n := st2.Metrics().JobsRecovered.Load(); n != 1 {
		t.Fatalf("JobsRecovered = %d, want 1", n)
	}
	if n := st2.Metrics().CheckpointsRecovered.Load(); n != 1 {
		t.Fatalf("CheckpointsRecovered = %d, want 1", n)
	}

	p2 := NewPool(WithWorkers(1), WithCheckpointInterval(1), WithStore(st2), WithLogger(quietLogger()))
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
	if n := p2.Metrics().FramesSimulated.Load(); n >= uint64(params.Frames) {
		t.Fatalf("restarted pool simulated %d frames; resume saved nothing", n)
	}
}

// TestCrashRecoveryDropsFailedJobs: a terminal failure closes the recovery
// window — failed jobs are neither re-run nor served after a restart.
func TestCrashRecoveryDropsFailedJobs(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, nil)
	p := NewPool(WithWorkers(1), WithStore(st), WithLogger(quietLogger()), WithBreaker(-1, 0))
	j, err := p.Submit(Spec{Alias: "no-such-benchmark", Tech: gpusim.RE})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err == nil {
		t.Fatal("unknown alias succeeded")
	}
	p.Close(context.Background())
	st.Close()

	st2 := openTestStore(t, dir, nil)
	defer st2.Close()
	rec := st2.Recovered()
	if len(rec.Pending) != 0 || len(rec.Results) != 0 {
		t.Fatalf("failed job recovered: pending=%d results=%d", len(rec.Pending), len(rec.Results))
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

	base := NewPool(WithWorkers(4), WithCheckpointInterval(1))
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
			p := NewPool(WithWorkers(4), WithCheckpointInterval(1), WithStore(st), WithLogger(quietLogger()))
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
			st.Close()

			// Restart fault-free: everything that survived must be exact.
			st2 := openTestStore(t, dir, nil)
			defer st2.Close()
			rec := st2.Recovered()
			for key, res := range rec.Results {
				wantRes, ok := wantByKey[key]
				if !ok {
					t.Fatalf("recovered unknown key %s", key)
				}
				if !reflect.DeepEqual(res, wantRes) {
					t.Fatalf("recovered result %s corrupted by store faults", key)
				}
			}
			if n := st2.Metrics().SnapshotsQuarantined.Load(); n != 0 {
				t.Fatalf("store faults left %d corrupt snapshots; failed writes must not publish", n)
			}
		})
	}
}

// TestNonDurableSpecsStayOffTheWAL: closure-carrying specs cannot cross a
// restart, so they must never leave pending WAL state behind.
func TestNonDurableSpecsStayOffTheWAL(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, nil)
	p := NewPool(WithWorkers(1), WithStore(st), WithLogger(quietLogger()))
	b, err := workload.ByAlias("ccs")
	if err != nil {
		t.Fatal(err)
	}
	j, err := p.Submit(Spec{
		Alias:  "custom-ccs",
		Params: chaosParams,
		Build:  b.Build,
		Tech:   gpusim.RE,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := j.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	p.Kill()
	st.Close()

	st2 := openTestStore(t, dir, nil)
	defer st2.Close()
	rec := st2.Recovered()
	if len(rec.Pending) != 0 || len(rec.Results) != 0 {
		t.Fatalf("non-durable spec left durable state: pending=%d results=%d", len(rec.Pending), len(rec.Results))
	}
}
