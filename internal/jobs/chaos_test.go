package jobs

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"rendelim/internal/fault"
	"rendelim/internal/gpusim"
	"rendelim/internal/rerr"
	"rendelim/internal/trace"
	"rendelim/internal/workload"
)

// chaosParams keeps the soaks fast enough for -race CI while still running
// several frames per job.
var chaosParams = workload.Params{Width: 64, Height: 48, Frames: 4, Seed: 1}

// chaosSpecs is the soak workload: the whole Table II suite plus one
// uploaded-trace job, so the decode path runs too.
func chaosSpecs(t *testing.T) []Spec {
	t.Helper()
	var specs []Spec
	for _, b := range workload.Suite() {
		specs = append(specs, Spec{Alias: b.Alias, Params: chaosParams, Tech: gpusim.RE})
	}
	b, err := workload.ByAlias("ccs")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, b.Build(chaosParams)); err != nil {
		t.Fatal(err)
	}
	specs = append(specs, Spec{TraceBin: buf.Bytes(), Tech: gpusim.RE})
	return specs
}

// runSuite submits every spec to the pool and waits for all of them.
func runSuite(t *testing.T, p *Pool, specs []Spec) []gpusim.Result {
	t.Helper()
	jobsList := make([]*Job, len(specs))
	for i, s := range specs {
		j, err := p.Submit(s)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		jobsList[i] = j
	}
	results := make([]gpusim.Result, len(specs))
	for i, j := range jobsList {
		res, err := j.Wait(context.Background())
		if err != nil {
			t.Fatalf("job %d (%s): %v", i, j.ID, err)
		}
		results[i] = res
	}
	return results
}

// chaosSite is TestChaosSoak's own fault site, which its runner checks at
// every frame boundary inside a run.
const chaosSite = "chaos.frame"

// TestChaosSoak runs the suite through a runner that panics at seeded frame
// boundaries mid-run, and asserts the failure model: a job runs once, so
// each fired panic fails exactly the job it hit, with an error wrapping
// rerr.ErrWorkerPanic, and every other job's result is byte-identical to
// the built-in runner's fault-free run (per-frame stats and framebuffer
// CRC). The workers survive their jobs' panics: once the plan is spent, the
// pool runs a failed job's resubmission to the fault-free result.
//
// The site's draws form one seeded sequence whatever the interleaving, and
// its third fault is draw 19 of it: the 33 boundaries of the 11 jobs give
// at least 29 draws before that fault (two failed jobs skip at most four),
// so exactly three jobs fail on every run.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak is seconds-long; skipped in -short")
	}
	specs := chaosSpecs(t)

	base := NewPool(WithWorkers(4))
	want := runSuite(t, base, specs)
	base.Close(context.Background())

	const limit = 3
	plan := fault.New(42).
		With(chaosSite, fault.Site{Prob: 0.1, Limit: limit, Kinds: []fault.Kind{fault.Panic}})
	run := func(_ context.Context, spec Spec, _ func(string, time.Duration)) (gpusim.Result, error) {
		tr, err := specTrace(spec)
		if err != nil {
			return gpusim.Result{}, err
		}
		cfg := spec.config()
		sim, err := gpusim.New(tr, cfg)
		if err != nil {
			return gpusim.Result{}, err
		}
		res := gpusim.Result{Technique: cfg.Technique, Name: tr.Name}
		for i := range tr.Frames {
			if i > 0 {
				plan.Check(chaosSite) // a panic-only site: it panics or returns nil
			}
			fs := sim.RunFrame(&tr.Frames[i])
			res.Frames = append(res.Frames, fs)
			res.Total.Add(fs)
		}
		res.FBCRC = sim.FrameBufferCRC()
		return res, nil
	}
	chaos := NewPool(WithWorkers(4), WithRun(run), WithLogger(quietLogger()))
	defer chaos.Close(context.Background())

	js := make([]*Job, len(specs))
	for i, s := range specs {
		j, err := chaos.Submit(s)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		js[i] = j
	}
	var failed []int
	for i, j := range js {
		got, err := j.Wait(context.Background())
		switch {
		case err == nil:
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("spec %d (%s): result diverges from the fault-free run", i, specs[i].Alias)
			}
		case errors.Is(err, rerr.ErrWorkerPanic) && errors.Is(err, fault.ErrInjected):
			failed = append(failed, i)
		default:
			t.Errorf("spec %d (%s): %v, want a result or an injected panic", i, specs[i].Alias, err)
		}
	}

	fired := plan.Fired(chaosSite)
	t.Logf("%d of %d jobs failed by injected panics", len(failed), len(specs))
	if len(failed) == 0 || len(failed) != fired {
		t.Fatalf("%d jobs failed and %d faults fired, want equal counts above 0", len(failed), fired)
	}
	m := chaos.Metrics()
	if got := m.Panics.Load(); got != uint64(len(failed)) {
		t.Errorf("resvc_jobs_panics_total = %d, want %d, one per failed job", got, len(failed))
	}
	if got := m.Failed.Load(); got != uint64(len(failed)) {
		t.Errorf("resvc_jobs_failed_total = %d, want %d", got, len(failed))
	}

	if fired != limit {
		t.Fatalf("%d of %d faults fired; the plan must be spent before the resubmission", fired, limit)
	}
	i := failed[0]
	j, err := chaos.Submit(specs[i])
	if err != nil {
		t.Fatal(err)
	}
	got, err := j.Wait(context.Background())
	if err != nil {
		t.Fatalf("resubmitted spec %d (%s): %v", i, specs[i].Alias, err)
	}
	if j.Deduped || !reflect.DeepEqual(got, want[i]) {
		t.Errorf("resubmitted spec %d (%s): deduped %v, result equal %v; want a fresh fault-free run",
			i, specs[i].Alias, j.Deduped, reflect.DeepEqual(got, want[i]))
	}
}

// TestCloseDrainNoLeaks: Close under deadline pressure, with jobs queued and
// in flight, must leave no job in Running state and leak no goroutines.
func TestCloseDrainNoLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	var runs atomic.Int64
	p := NewPool(WithWorkers(3), WithRun(fakeRun(&runs, 200*time.Millisecond)))
	var js []*Job
	for _, alias := range []string{"ccs", "mst", "hop", "coc", "cde", "ctr", "abi", "csn"} {
		j, err := p.Submit(spec(alias))
		if err != nil {
			t.Fatal(err)
		}
		js = append(js, j)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := p.Close(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("close: %v", err)
	}

	// Deadline pressure cancelled the stragglers; either way every job must
	// be terminal — nothing stuck Running or Queued forever.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		terminal := 0
		for _, j := range js {
			if st := j.State(); st == Done || st == Failed {
				terminal++
			}
		}
		if terminal == len(js) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, j := range js {
		if st := j.State(); st != Done && st != Failed {
			t.Errorf("job %s left in state %v after Close", j.ID, st)
		}
	}

	// Workers and their runs must be gone. Allow slack for runtime
	// background goroutines.
	deadline = time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines %d -> %d: pool leaked", before, after)
	}
}

// TestTrySubmitShedsLoad: with the queue full, TrySubmit must reject with
// ErrOverloaded immediately instead of blocking, and count the shed.
func TestTrySubmitShedsLoad(t *testing.T) {
	block := make(chan struct{})
	run := func(ctx context.Context, spec Spec, observe func(string, time.Duration)) (gpusim.Result, error) {
		select {
		case <-block:
			return gpusim.Result{Name: spec.Alias}, nil
		case <-ctx.Done():
			return gpusim.Result{}, ctx.Err()
		}
	}
	p := NewPool(WithWorkers(1), WithQueueDepth(1), WithRun(run))
	defer func() { close(block); p.Close(context.Background()) }()

	a, err := p.Submit(spec("ccs"))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the worker picked a up, so the next submit occupies the
	// queue's single slot.
	deadline := time.Now().Add(2 * time.Second)
	for a.State() != Running && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if a.State() != Running {
		t.Fatal("first job never started")
	}
	if _, err := p.TrySubmit(spec("mst")); err != nil {
		t.Fatalf("queue-filling submit: %v", err)
	}
	_, err = p.TrySubmit(spec("hop"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if got := p.Metrics().LoadShed.Load(); got != 1 {
		t.Errorf("resvc_load_shed_total = %d, want 1", got)
	}
}
