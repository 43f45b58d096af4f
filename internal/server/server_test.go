package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rendelim/internal/api"
	"rendelim/internal/apihttp"
	"rendelim/internal/cluster"
	"rendelim/internal/fault"
	"rendelim/internal/gpusim"
	"rendelim/internal/jobs"
	"rendelim/internal/obs"
	"rendelim/internal/rerr"
	"rendelim/internal/shader"
	"rendelim/internal/trace"
	"rendelim/internal/workload"
)

func newTestServer(t *testing.T) (*httptest.Server, *jobs.Pool) {
	t.Helper()
	pool := jobs.NewPool(jobs.WithWorkers(2), jobs.WithCacheSize(32))
	t.Cleanup(func() { pool.Close(context.Background()) })
	srv := httptest.NewServer(New(pool, Limits{}).Handler())
	t.Cleanup(srv.Close)
	return srv, pool
}

func postJSON(t *testing.T, url string, body string) (int, apihttp.JobResponse) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var jr apihttp.JobResponse
	raw, _ := io.ReadAll(resp.Body)
	if err := json.Unmarshal(raw, &jr); err != nil {
		t.Fatalf("bad response %s: %v", raw, err)
	}
	return resp.StatusCode, jr
}

func metricValue(t *testing.T, base, name string) float64 {
	t.Helper()
	resp, err := http.Get(base + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` ([0-9.eE+-]+)$`)
	m := re.FindSubmatch(raw)
	if m == nil {
		t.Fatalf("metric %s not found in:\n%s", name, raw)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// The acceptance scenario: POST the same spec twice; the second submission
// is eliminated by the signature cache — no re-simulation, identical result
// payload, and jobs_deduped_total ticks up.
func TestEndToEndJobElimination(t *testing.T) {
	srv, _ := newTestServer(t)
	body := `{"alias": "ccs", "tech": "re", "width": 96, "height": 64, "frames": 3}`

	code1, jr1 := postJSON(t, srv.URL+"/v1/jobs?wait=1", body)
	if code1 != http.StatusOK {
		t.Fatalf("first POST: status %d (%+v)", code1, jr1)
	}
	if jr1.State != "done" || jr1.Result == nil {
		t.Fatalf("first job not done: %+v", jr1)
	}
	if jr1.Deduped {
		t.Error("first submission must not be deduped")
	}

	code2, jr2 := postJSON(t, srv.URL+"/v1/jobs?wait=1", body)
	if code2 != http.StatusOK {
		t.Fatalf("second POST: status %d", code2)
	}
	if !jr2.Deduped {
		t.Error("second identical submission not eliminated")
	}
	if jr1.Key != jr2.Key {
		t.Errorf("keys differ: %s vs %s", jr1.Key, jr2.Key)
	}
	if jr1.ID == jr2.ID {
		t.Error("submissions must get distinct job IDs")
	}
	r1, _ := json.Marshal(jr1.Result)
	r2, _ := json.Marshal(jr2.Result)
	if !bytes.Equal(r1, r2) {
		t.Errorf("result payloads differ:\n%s\n%s", r1, r2)
	}

	if v := metricValue(t, srv.URL, "resvc_jobs_deduped_total"); v < 1 {
		t.Errorf("resvc_jobs_deduped_total = %v, want >= 1", v)
	}
	if v := metricValue(t, srv.URL, "resvc_jobs_completed_total"); v != 1 {
		t.Errorf("resvc_jobs_completed_total = %v, want 1 (second run eliminated)", v)
	}
	if v := metricValue(t, srv.URL, "resvc_job_elimination_ratio"); v != 0.5 {
		t.Errorf("resvc_job_elimination_ratio = %v, want 0.5", v)
	}

	// A different technique must NOT be eliminated (config hash differs).
	_, jr3 := postJSON(t, srv.URL+"/v1/jobs?wait=1", `{"alias": "ccs", "tech": "base", "width": 96, "height": 64, "frames": 3}`)
	if jr3.Deduped {
		t.Error("different config wrongly eliminated")
	}
}

func TestTraceUpload(t *testing.T) {
	srv, _ := newTestServer(t)

	b, err := workload.ByAlias("ccs")
	if err != nil {
		t.Fatal(err)
	}
	tr := b.Build(workload.Params{Width: 96, Height: 64, Frames: 2, Seed: 1})
	var buf bytes.Buffer
	if err := trace.Encode(&buf, tr); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	post := func() (int, apihttp.JobResponse) {
		resp, err := http.Post(srv.URL+"/v1/jobs?wait=1&tech=re", "application/octet-stream", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var jr apihttp.JobResponse
		if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, jr
	}
	code, jr := post()
	if code != http.StatusOK || jr.State != "done" || jr.Result == nil {
		t.Fatalf("upload run failed: %d %+v", code, jr)
	}
	if jr.Result.Frames != 2 || jr.Result.TilesTotal == 0 {
		t.Errorf("implausible result %+v", jr.Result)
	}
	// Identical bytes -> identical trace signature -> eliminated.
	_, jr2 := post()
	if !jr2.Deduped {
		t.Error("identical trace upload not eliminated")
	}

	// Malformed upload must 400, not crash.
	resp, err := http.Post(srv.URL+"/v1/jobs", "application/octet-stream", bytes.NewReader(raw[:37]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated trace: status %d, want 400", resp.StatusCode)
	}
}

func TestJobStatusEndpoint(t *testing.T) {
	srv, _ := newTestServer(t)
	_, jr := postJSON(t, srv.URL+"/v1/jobs", `{"alias": "cde", "width": 96, "height": 64, "frames": 2}`)
	if jr.ID == "" || jr.Location != "/v1/jobs/"+jr.ID {
		t.Fatalf("bad submit response %+v", jr)
	}

	resp, err := http.Get(srv.URL + jr.Location + "?wait=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got apihttp.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.ID != jr.ID || got.State != "done" || got.Result == nil {
		t.Errorf("status: %+v", got)
	}

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/jobs/j-999999", http.StatusNotFound},
		{"/v1/jobs/", http.StatusNotFound},
	} {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("GET %s: status %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

func TestHealthz(t *testing.T) {
	srv, pool := newTestServer(t)
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	var h struct {
		Status  string `json:"status"`
		Workers int    `json:"workers"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Workers != pool.Workers() {
		t.Errorf("healthz payload %+v", h)
	}
}

func TestBadRequests(t *testing.T) {
	srv, _ := newTestServer(t)
	cases := []struct {
		name string
		do   func() (*http.Response, error)
		want int
	}{
		{"GET /v1/jobs", func() (*http.Response, error) { return http.Get(srv.URL + "/v1/jobs") }, http.StatusMethodNotAllowed},
		{"bad JSON", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{"))
		}, http.StatusBadRequest},
		{"missing alias", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader("{}"))
		}, http.StatusBadRequest},
		{"unknown alias", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"alias": "nope"}`))
		}, http.StatusBadRequest},
		{"unknown tech", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"alias": "ccs", "tech": "quantum"}`))
		}, http.StatusBadRequest},
		{"over-limit resolution", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"alias": "ccs", "width": 100000, "height": 100000}`))
		}, http.StatusBadRequest},
		{"over-limit frames", func() (*http.Response, error) {
			return http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"alias": "ccs", "frames": 100000}`))
		}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, err := tc.do()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}
}

// TestUnrunnableInputsRejected: inputs the simulator cannot run are client
// errors at submission (400), not jobs that panic or allocate per texel:
// an uploaded program that writes past the temporaries, a texture with no
// texels, a texture bigger than the pixel limit, and resolutions whose
// pixel count overflows int. The pool's runner never simulates, so a
// regression fails the test instead of allocating 16 GiB of texels.
func TestUnrunnableInputsRejected(t *testing.T) {
	run := func(ctx context.Context, spec jobs.Spec, observe func(string, time.Duration)) (gpusim.Result, error) {
		t.Errorf("submission reached the runner: %+v", spec.Params)
		return gpusim.Result{}, errors.New("not simulated")
	}
	pool := jobs.NewPool(jobs.WithWorkers(1), jobs.WithRun(run))
	t.Cleanup(func() { pool.Close(context.Background()) })
	srv := httptest.NewServer(New(pool, Limits{}).Handler())
	t.Cleanup(srv.Close)

	b, err := workload.ByAlias("ccs")
	if err != nil {
		t.Fatal(err)
	}
	upload := func(mutate func(*api.Trace)) []byte {
		tr := b.Build(workload.Params{Width: 64, Height: 48, Frames: 2, Seed: 1})
		mutate(tr)
		var buf bytes.Buffer
		if err := trace.Encode(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	writesR200 := &shader.Program{Name: "bad", Instrs: []shader.Instr{{Op: shader.OpMov, Dst: shader.RD(200), Src: [3]shader.Src{shader.R(0)}}}}
	cases := []struct {
		name, contentType string
		body              []byte
	}{
		{"uploaded program writes r200", "application/octet-stream", upload(func(tr *api.Trace) {
			tr.Frames[1].Commands = append([]api.Command{api.UploadProgram{ID: 0, Program: writesR200}}, tr.Frames[1].Commands...)
		})},
		{"0x0 texture", "application/octet-stream", upload(func(tr *api.Trace) {
			tr.Textures = append(tr.Textures, api.TextureSpec{Kind: api.TexChecker, Cell: 1})
		})},
		{"65536x65536 texture", "application/octet-stream", upload(func(tr *api.Trace) {
			tr.Textures = append(tr.Textures, api.TextureSpec{Kind: api.TexChecker, W: 65536, H: 65536, Cell: 1})
		})},
		{"resolution product wraps to 0", "application/json", []byte(`{"alias": "ccs", "width": 4294967296, "height": 4294967296}`)},
		{"resolution product wraps negative", "application/json", []byte(`{"alias": "ccs", "width": 3037000500, "height": 3037000500}`)},
	}
	for _, tc := range cases {
		resp, err := http.Post(srv.URL+"/v1/jobs?wait=1", tc.contentType, bytes.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", tc.name, resp.StatusCode, raw)
		}
	}
}

// The async path: POST without wait returns 202 and the job converges via
// polling GET /v1/jobs/{id}.
func TestAsyncSubmit(t *testing.T) {
	srv, _ := newTestServer(t)
	code, jr := postJSON(t, srv.URL+"/v1/jobs", `{"alias": "ctr", "width": 96, "height": 64, "frames": 2}`)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("async POST: status %d", code)
	}
	resp, err := http.Get(fmt.Sprintf("%s/v1/jobs/%s?wait=1", srv.URL, jr.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got apihttp.JobResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.State != "done" {
		t.Errorf("job state %q after wait", got.State)
	}
}

// statusForError is the contract between the pool's error taxonomy and HTTP:
// client mistakes are 4xx, capacity conditions are 429/503, anything
// unclassified is 500 — never a client-blaming 400.
func TestStatusForError(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"bad trace", fmt.Errorf("wrap: %w", rerr.ErrBadTrace), http.StatusBadRequest},
		{"bad config", fmt.Errorf("wrap: %w", rerr.ErrBadConfig), http.StatusBadRequest},
		{"unknown benchmark", fmt.Errorf("wrap: %w", rerr.ErrUnknownBenchmark), http.StatusBadRequest},
		{"overloaded", jobs.ErrOverloaded, http.StatusTooManyRequests},
		{"pool closed", jobs.ErrClosed, http.StatusServiceUnavailable},
		{"peer unreachable", fmt.Errorf("forward to 10.0.0.2:80: %w: dial refused", cluster.ErrPeerUnavailable), http.StatusServiceUnavailable},
		{"peer garbage", fmt.Errorf("forward to 10.0.0.2:80: %w: status 500", cluster.ErrPeerBadResponse), http.StatusBadGateway},
		{"double wrap", fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", rerr.ErrBadTrace)), http.StatusBadRequest},
		{"flattened chain", fmt.Errorf("outer: %v", rerr.ErrBadTrace), http.StatusInternalServerError},
		{"unclassified", errors.New("mystery"), http.StatusInternalServerError},
		{"nil-adjacent", io.EOF, http.StatusInternalServerError},
	}
	for _, tc := range cases {
		if got := statusForError(tc.err); got != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, got, tc.want)
		}
	}
}

// Every spec-validation error must reach the client as a 400 whose body
// matches a sentinel — the errors.Is sweep of the bugfix satellite.
func TestSpecErrorsWrapSentinels(t *testing.T) {
	srv := New(nil, Limits{})

	jsonCases := []struct {
		name string
		body string
	}{
		{"bad JSON", "{"},
		{"missing alias", "{}"},
		{"bad tech", `{"alias": "ccs", "tech": "quantum"}`},
		{"over-limit resolution", `{"alias": "ccs", "width": 100000, "height": 100000}`},
		{"over-limit frames", `{"alias": "ccs", "frames": 100000}`},
	}
	for _, tc := range jsonCases {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(tc.body))
		_, _, err := srv.specFromJSON(r)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !errors.Is(err, rerr.ErrBadConfig) && !errors.Is(err, rerr.ErrUnknownBenchmark) {
			t.Errorf("%s: %v does not wrap ErrBadConfig/ErrUnknownBenchmark", tc.name, err)
		}
		if statusForError(err) != http.StatusBadRequest {
			t.Errorf("%s: maps to %d, want 400", tc.name, statusForError(err))
		}
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/jobs", strings.NewReader(`{"alias": "nope"}`))
	if _, _, err := srv.specFromJSON(r); !errors.Is(err, rerr.ErrUnknownBenchmark) {
		t.Errorf("unknown alias: %v does not wrap ErrUnknownBenchmark", err)
	}

	traceCases := []struct {
		name string
		body []byte
	}{
		{"garbage bytes", []byte("definitely not a trace")},
		{"empty body", nil},
	}
	for _, tc := range traceCases {
		r := httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(tc.body))
		_, _, err := srv.specFromTrace(r)
		if err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if !errors.Is(err, rerr.ErrBadTrace) {
			t.Errorf("%s: %v does not wrap ErrBadTrace", tc.name, err)
		}
		if statusForError(err) != http.StatusBadRequest {
			t.Errorf("%s: maps to %d, want 400", tc.name, statusForError(err))
		}
	}
	// Bad tech on a valid trace upload wraps ErrBadConfig.
	b, err := workload.ByAlias("ccs")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, b.Build(workload.Params{Width: 64, Height: 48, Frames: 1, Seed: 1})); err != nil {
		t.Fatal(err)
	}
	r = httptest.NewRequest(http.MethodPost, "/v1/jobs?tech=quantum", bytes.NewReader(buf.Bytes()))
	if _, _, err := srv.specFromTrace(r); !errors.Is(err, rerr.ErrBadConfig) {
		t.Errorf("bad upload tech: %v does not wrap ErrBadConfig", err)
	}
}

// A full queue must shed load with 429 + Retry-After, not block the handler.
func TestOverloadSheds429(t *testing.T) {
	block := make(chan struct{})
	run := func(ctx context.Context, spec jobs.Spec, observe func(string, time.Duration)) (gpusim.Result, error) {
		select {
		case <-block:
			return gpusim.Result{Name: spec.Alias}, nil
		case <-ctx.Done():
			return gpusim.Result{}, ctx.Err()
		}
	}
	pool := jobs.NewPool(jobs.WithWorkers(1), jobs.WithQueueDepth(1), jobs.WithRun(run))
	t.Cleanup(func() { close(block); pool.Close(context.Background()) })
	srv := httptest.NewServer(New(pool, Limits{}).Handler())
	t.Cleanup(srv.Close)

	// First job occupies the worker, second the queue slot.
	code, jr := postJSON(t, srv.URL+"/v1/jobs", `{"alias": "ccs"}`)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: %d", code)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(srv.URL + "/v1/jobs/" + jr.ID)
		if err != nil {
			t.Fatal(err)
		}
		var got apihttp.JobResponse
		json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if got.State == "running" {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if code, _ := postJSON(t, srv.URL+"/v1/jobs", `{"alias": "mst"}`); code != http.StatusAccepted {
		t.Fatalf("queue-filling submit: %d", code)
	}

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"alias": "hop"}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// StartDraining must flip /v1/healthz to 503 {"status":"draining"}.
func TestHealthzDraining(t *testing.T) {
	pool := jobs.NewPool(jobs.WithWorkers(1), jobs.WithCacheSize(8))
	t.Cleanup(func() { pool.Close(context.Background()) })
	s := New(pool, Limits{})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	s.StartDraining()
	if !s.Draining() {
		t.Fatal("Draining() false after StartDraining")
	}
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d, want 503", resp.StatusCode)
	}
	var h struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "draining" {
		t.Errorf("status %q, want draining", h.Status)
	}
}

// The handler middleware must recover injected accept-path panics (500, the
// process survives) and shed injected transient faults (503 + Retry-After).
func TestHandlerFaultInjection(t *testing.T) {
	pool := jobs.NewPool(jobs.WithWorkers(1), jobs.WithCacheSize(8))
	t.Cleanup(func() { pool.Close(context.Background()) })
	s := New(pool, Limits{})
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)

	s.SetFaultPlan(fault.New(5).
		With(fault.SiteServerAccept, fault.Site{Prob: 1, Limit: 1, Kinds: []fault.Kind{fault.Panic}}))
	resp, err := http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("panicking request: %d, want 500", resp.StatusCode)
	}

	s.SetFaultPlan(fault.New(5).
		With(fault.SiteServerAccept, fault.Site{Prob: 1, Limit: 1, Kinds: []fault.Kind{fault.Transient}}))
	resp, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shed request: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("injected 503 without Retry-After")
	}

	// Plan exhausted (Limit 1 each): the server must be healthy again.
	s.SetFaultPlan(nil)
	resp, err = http.Get(srv.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered healthz: %d, want 200", resp.StatusCode)
	}
}

// At the info level a node's /debug/events keeps a warning through any
// number of cache hits: each elimination is a debug record, which the
// logger does not emit, so it never reaches the journal's ring.
func TestEventsKeepWarningsThroughCacheHits(t *testing.T) {
	block := make(chan struct{})
	var once sync.Once
	release := func() { once.Do(func() { close(block) }) }
	run := func(ctx context.Context, spec jobs.Spec, observe func(string, time.Duration)) (gpusim.Result, error) {
		select {
		case <-block:
			return gpusim.Result{Name: spec.Alias}, nil
		case <-ctx.Done():
			return gpusim.Result{}, ctx.Err()
		}
	}
	journal := obs.NewJournal(slog.NewTextHandler(io.Discard, nil))
	logger := slog.New(journal)
	pool := jobs.NewPool(jobs.WithWorkers(1), jobs.WithQueueDepth(1), jobs.WithRun(run), jobs.WithLogger(logger))
	t.Cleanup(func() { release(); pool.Close(context.Background()) })
	srv := New(pool, Limits{})
	srv.SetLogger(logger)
	srv.SetJournal(journal)
	h := srv.Handler()
	serve := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(method, path, strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		h.ServeHTTP(rec, req)
		return rec
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	// One job holds the worker, one the queue slot, and the third is shed.
	if rec := serve(http.MethodPost, "/v1/jobs", `{"alias": "ccs"}`); rec.Code != http.StatusAccepted {
		t.Fatalf("first submit: %d", rec.Code)
	}
	waitFor("the first job to run", func() bool { return pool.Metrics().Running.Load() == 1 })
	if rec := serve(http.MethodPost, "/v1/jobs", `{"alias": "mst"}`); rec.Code != http.StatusAccepted {
		t.Fatalf("queue-filling submit: %d", rec.Code)
	}
	if rec := serve(http.MethodPost, "/v1/jobs", `{"alias": "hop"}`); rec.Code != http.StatusTooManyRequests {
		t.Fatalf("overloaded submit: %d, want 429", rec.Code)
	}
	release()
	waitFor("both jobs to finish", func() bool { return pool.Metrics().Completed.Load() == 2 })

	const hits = 1000
	for i := 0; i < hits; i++ {
		if rec := serve(http.MethodPost, "/v1/jobs", `{"alias": "ccs"}`); rec.Code != http.StatusOK {
			t.Fatalf("cache hit %d: %d", i, rec.Code)
		}
	}
	if got := pool.Metrics().CacheHits.Load(); got != hits {
		t.Fatalf("cache hits = %d, want %d", got, hits)
	}

	var events []obs.JournalEvent
	if err := json.Unmarshal(serve(http.MethodGet, "/debug/events", "").Body.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	for _, ev := range events {
		if ev.Level == "WARN" && ev.Msg == "job shed" {
			return
		}
	}
	t.Errorf("/debug/events lost the load-shed warning after %d cache hits: %+v", hits, events)
}
