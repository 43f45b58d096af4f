// Package server exposes the jobs pool over HTTP: POST /v1/jobs submits a
// workload spec (JSON) or an uploaded internal/trace binary, GET
// /v1/jobs/{id} reports status and results, GET /v1/healthz liveness, and
// GET /v1/metrics the
// Prometheus-text pool counters — including the job-elimination ratio (the
// service-level twin of the paper's tile skip fraction) and the simulator's
// per-pipeline-stage cycle and tile-class totals. Runtime introspection
// rides along at /debug/pprof (net/http/pprof) and /debug/vars (expvar).
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"net/url"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rendelim/internal/api"
	"rendelim/internal/apihttp"
	"rendelim/internal/cluster"
	"rendelim/internal/fault"
	"rendelim/internal/gpusim"
	"rendelim/internal/jobs"
	"rendelim/internal/obs"
	"rendelim/internal/promtext"
	"rendelim/internal/rerr"
	"rendelim/internal/stats"
	"rendelim/internal/trace"
	"rendelim/internal/workload"
)

// Limits bound untrusted inputs.
type Limits struct {
	MaxBodyBytes int64 // trace upload size; default 64 MiB
}

// Fixed bounds on untrusted inputs.
const (
	maxPixels = 4096 * 4096      // a job's Width*Height, and an upload's texel budget
	maxFrames = 1000             // frames per job
	maxWait   = 10 * time.Minute // cap on a ?wait deadline
)

// Server routes HTTP requests to a jobs.Pool — and, when clustered, to the
// ring owner of each job's signature.
type Server struct {
	pool   *jobs.Pool
	limits Limits
	start  time.Time
	log    *slog.Logger

	// cluster, when non-nil, shards job ownership across the fleet: a
	// submission whose signature this node does not own is proxied to its
	// owner, so the owner's singleflight and LRU cache eliminate identical
	// jobs cluster-wide. Set once at startup (SetCluster), read-only after.
	cluster *cluster.Cluster

	// tracer/spans emit one span per HTTP request into the Chrome trace;
	// journal is the node logger's record ring, served at /debug/events.
	// All nil-safe, set once at startup (SetTracer / SetJournal), read-only
	// after.
	tracer  *obs.Tracer
	spans   *obs.SpanPool
	journal *obs.Journal

	requests atomic.Uint64
	draining atomic.Bool
	fplan    atomic.Pointer[fault.Plan]

	// httpHists distributes request latency per (route, status) — routes are
	// normalized patterns ("/v1/jobs/{id}"), never raw paths, so cardinality
	// stays bounded.
	httpMu    sync.Mutex
	httpHists map[httpLabel]*stats.Histogram
}

// httpLabel keys one HTTP latency series.
type httpLabel struct {
	route  string
	status int
}

// httpBuckets bound HTTP request latency in seconds: metrics scrapes sit in
// the sub-millisecond buckets, a ?wait=1 submit can hold for a simulation.
var httpBuckets = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}

// New wraps pool; zero limits select defaults.
func New(pool *jobs.Pool, limits Limits) *Server {
	if limits.MaxBodyBytes <= 0 {
		limits.MaxBodyBytes = 64 << 20
	}
	obs.PublishBuildInfo()
	return &Server{
		pool:      pool,
		limits:    limits,
		start:     time.Now(),
		log:       slog.Default(),
		httpHists: make(map[httpLabel]*stats.Histogram),
	}
}

// SetLogger redirects the server's request log (default: slog.Default).
func (s *Server) SetLogger(l *slog.Logger) {
	if l != nil {
		s.log = l
	}
}

// SetCluster joins the server to a cluster: submissions this node does not
// own are forwarded to their ring owner, owned submissions run locally.
// Must be called before the server starts handling requests.
func (s *Server) SetCluster(c *cluster.Cluster) { s.cluster = c }

// SetTracer emits one span per HTTP request into t's Chrome trace, tagged
// with the request's trace id. Must be called before the server starts
// handling requests; nil leaves tracing off.
func (s *Server) SetTracer(t *obs.Tracer) {
	s.tracer = t
	s.spans = obs.NewSpanPool(t, "http")
}

// SetJournal serves j's records at /debug/events. j should wrap the
// handler of the logger the node logs through, so the endpoint shows what
// that logger emitted. Must be called before the server starts handling
// requests; nil serves an empty array.
func (s *Server) SetJournal(j *obs.Journal) { s.journal = j }

// SetFaultPlan arms fault injection at the server.accept site, the only
// one the server checks. Safe to call concurrently with request serving;
// nil disarms.
func (s *Server) SetFaultPlan(p *fault.Plan) { s.fplan.Store(p) }

// StartDraining flips /v1/healthz to 503 {"status":"draining"} so load
// balancers stop routing here while in-flight jobs finish. Submissions are
// still accepted until the listener closes: draining is advisory,
// shutdown-ordering (Shutdown, then Pool.Close) does the real work.
func (s *Server) StartDraining() { s.draining.Store(true) }

// statusWriter captures the response code for the request log, and whether
// anything was written (so the panic recovery knows a 500 can still be sent).
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Handler returns the service mux, including the /debug/pprof, /debug/vars
// and /debug/events introspection endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(apihttp.PathJobs, s.handleJobs)
	mux.HandleFunc(apihttp.PathJobs+"/", s.handleJobByID)
	mux.HandleFunc(apihttp.PathHealthz, s.handleHealthz)
	mux.HandleFunc(apihttp.PathMetrics, s.handleMetrics)
	mux.HandleFunc("/debug/events", s.handleEvents)
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		// Trace context: honor an inbound W3C traceparent (a cluster hop, or
		// a tracing-aware client) by continuing its trace with a fresh span;
		// otherwise this request is a trace root.
		tc, err := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
		if err == nil && tc.Valid() {
			tc = tc.Child()
		} else {
			tc = obs.NewTraceContext()
		}
		r = r.WithContext(obs.ContextWithTrace(r.Context(), tc))
		route := routeLabel(r.URL.Path)
		var th *obs.Thread
		if s.spans != nil {
			if th = s.spans.Get(); th != nil {
				th.BeginArgStr(r.Method+" "+route, "trace_id", tc.TraceIDString())
			}
		}
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		start := time.Now()
		// Handler-level panic isolation: one failed request must never take
		// the process (net/http would only catch panics below ServeHTTP).
		defer func() {
			if rec := recover(); rec != nil {
				s.log.Error("handler panicked", "path", r.URL.Path, "panic", rec,
					"stack", string(debug.Stack()))
				if !sw.wrote {
					httpError(sw, http.StatusInternalServerError, "internal error")
				}
			}
			s.observeHTTP(route, sw.status, time.Since(start).Seconds())
			if th != nil {
				th.End()
				s.spans.Put(th)
			}
			if s.log.Enabled(r.Context(), slog.LevelDebug) {
				s.log.Debug("http request", "method", r.Method, "path", r.URL.Path,
					"status", sw.status, "duration", time.Since(start), "remote", r.RemoteAddr,
					"trace_id", tc.TraceIDString(), "span_id", tc.SpanIDString())
			}
		}()
		// Injected accept-path fault: Panic unwinds into the recover above,
		// Transient sheds the request.
		if err := s.fplan.Load().Check(fault.SiteServerAccept); err != nil {
			w.Header().Set("Retry-After", "1")
			httpError(sw, http.StatusServiceUnavailable, "injected fault: "+err.Error())
			return
		}
		mux.ServeHTTP(sw, r)
	})
}

// routeLabel normalizes a request path to a bounded label set for the
// latency histogram — raw paths (job ids, pprof profiles) would explode
// series cardinality.
func routeLabel(path string) string {
	switch {
	case path == apihttp.PathJobs, path == apihttp.PathHealthz, path == apihttp.PathMetrics,
		path == "/debug/vars", path == "/debug/events":
		return path
	case strings.HasPrefix(path, apihttp.PathJobs+"/"):
		return apihttp.PathJobs + "/{id}"
	case strings.HasPrefix(path, "/debug/pprof"):
		return "/debug/pprof"
	}
	return "other"
}

// observeHTTP records one request latency into its (route, status) series.
func (s *Server) observeHTTP(route string, status int, seconds float64) {
	l := httpLabel{route: route, status: status}
	s.httpMu.Lock()
	h, ok := s.httpHists[l]
	if !ok {
		h = stats.NewHistogram(httpBuckets...)
		s.httpHists[l] = h
	}
	s.httpMu.Unlock()
	h.Observe(seconds)
}

// handleEvents serves the journal — the last records the node logged, its
// flight recorder — as a JSON array, oldest first. Always an array, even
// with no journal wired.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	evs := s.journal.Events()
	if evs == nil {
		evs = []obs.JournalEvent{}
	}
	writeJSON(w, http.StatusOK, evs)
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		httpError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	ct := r.Header.Get("Content-Type")
	var spec jobs.Spec
	var body []byte
	var err error
	switch {
	case strings.HasPrefix(ct, "application/json"), ct == "":
		body, spec, err = s.specFromJSON(r)
	default: // binary trace upload (application/octet-stream or similar)
		body, spec, err = s.specFromTrace(r)
	}
	if err != nil {
		httpError(w, statusForError(err), err.Error())
		return
	}

	// Cluster routing: a signature this node does not own goes to its ring
	// owner, whose singleflight + cache eliminate identical jobs fleet-wide.
	// A request that already carries the forward header is processed locally
	// unconditionally — divergent ring views must never bounce a job around.
	if s.cluster != nil && r.Header.Get(cluster.ForwardHeader) == "" {
		key := spec.Key()
		if owner := s.cluster.Owner(key); !s.cluster.IsSelf(owner) {
			if s.forwardSubmit(w, r, owner, key, body, ct) {
				return
			}
			// Owner unreachable: degraded mode — fall through and simulate
			// locally rather than failing the request.
		}
	}
	s.submitLocal(w, r, spec)
}

// submitLocal runs the submission against this node's own pool.
func (s *Server) submitLocal(w http.ResponseWriter, r *http.Request, spec jobs.Spec) {
	job, err := s.pool.TrySubmit(spec)
	if err != nil {
		status := statusForError(err)
		if ra := retryAfter(err); ra > 0 {
			w.Header().Set("Retry-After", strconv.Itoa(ra))
		}
		httpError(w, status, err.Error())
		return
	}

	status := http.StatusAccepted
	if wait := r.URL.Query().Get("wait"); wait != "" && wait != "0" && wait != "false" {
		ctx, cancel := context.WithTimeout(r.Context(), maxWait)
		defer cancel()
		job.Wait(ctx)
	}
	resp := s.jobResponse(job, traceIDFrom(r.Context()))
	if resp.State == "done" || resp.State == "failed" {
		status = http.StatusOK
	}
	resp.Location = apihttp.JobPath(job.ID)
	writeJSON(w, status, resp)
}

// specFromJSON parses a workload-spec submission. The raw body rides along
// for cluster forwarding, which re-sends the client's payload verbatim.
func (s *Server) specFromJSON(r *http.Request) ([]byte, jobs.Spec, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
	if err != nil {
		return nil, jobs.Spec{}, fmt.Errorf("%w: read body: %v", rerr.ErrBadConfig, err)
	}
	var req apihttp.SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, jobs.Spec{}, fmt.Errorf("%w: bad JSON: %v", rerr.ErrBadConfig, err)
	}
	if req.Alias == "" {
		return nil, jobs.Spec{}, fmt.Errorf("%w: missing alias", rerr.ErrBadConfig)
	}
	if _, err := workload.ByAlias(req.Alias); err != nil {
		return nil, jobs.Spec{}, err // wraps rerr.ErrUnknownBenchmark
	}
	if req.Tech == "" {
		req.Tech = "re"
	}
	tech, err := gpusim.ParseTechnique(req.Tech)
	if err != nil {
		return nil, jobs.Spec{}, fmt.Errorf("%w: %v", rerr.ErrBadConfig, err)
	}
	p := workload.DefaultParams()
	if req.Width > 0 {
		p.Width = req.Width
	}
	if req.Height > 0 {
		p.Height = req.Height
	}
	if req.Frames > 0 {
		p.Frames = req.Frames
	}
	if req.Seed != 0 {
		p.Seed = req.Seed
	}
	if pixelsLeft(maxPixels, p.Width, p.Height) < 0 {
		return nil, jobs.Spec{}, fmt.Errorf("%w: resolution %dx%d over limit", rerr.ErrBadConfig, p.Width, p.Height)
	}
	if p.Frames > maxFrames {
		return nil, jobs.Spec{}, fmt.Errorf("%w: frames %d over limit %d", rerr.ErrBadConfig, p.Frames, maxFrames)
	}
	return body, jobs.Spec{Alias: req.Alias, Params: p, Tech: tech, Tag: req.Tag}, nil
}

// specFromTrace validates a binary trace upload. The raw bytes become the
// job's signature input; technique and tag come from query parameters.
func (s *Server) specFromTrace(r *http.Request) ([]byte, jobs.Spec, error) {
	body, err := io.ReadAll(io.LimitReader(r.Body, s.limits.MaxBodyBytes+1))
	if err != nil {
		return nil, jobs.Spec{}, fmt.Errorf("%w: read body: %v", rerr.ErrBadTrace, err)
	}
	if int64(len(body)) > s.limits.MaxBodyBytes {
		return nil, jobs.Spec{}, fmt.Errorf("%w: trace over %d-byte limit", rerr.ErrBadTrace, s.limits.MaxBodyBytes)
	}
	tr, err := trace.Decode(bytes.NewReader(body))
	if err != nil {
		return nil, jobs.Spec{}, err // wraps rerr.ErrBadTrace
	}
	if pixelsLeft(maxPixels, tr.Width, tr.Height) < 0 {
		return nil, jobs.Spec{}, fmt.Errorf("%w: trace resolution %dx%d over limit", rerr.ErrBadTrace, tr.Width, tr.Height)
	}
	// The simulator builds every texture spec in full, so their texels
	// share the same budget as the framebuffer's pixels.
	texels := maxPixels
	for _, spec := range tr.Textures {
		texels = pixelsLeft(texels, spec.W, spec.H)
	}
	for _, f := range tr.Frames {
		for _, cmd := range f.Commands {
			if up, ok := cmd.(api.UploadTexture); ok {
				texels = pixelsLeft(texels, up.Spec.W, up.Spec.H)
			}
		}
	}
	if texels < 0 {
		return nil, jobs.Spec{}, fmt.Errorf("%w: trace textures over the %d-texel limit", rerr.ErrBadTrace, maxPixels)
	}
	if len(tr.Frames) > maxFrames {
		return nil, jobs.Spec{}, fmt.Errorf("%w: trace frame count %d over limit %d", rerr.ErrBadTrace, len(tr.Frames), maxFrames)
	}
	techStr := r.URL.Query().Get("tech")
	if techStr == "" {
		techStr = "re"
	}
	tech, err := gpusim.ParseTechnique(techStr)
	if err != nil {
		return nil, jobs.Spec{}, fmt.Errorf("%w: %v", rerr.ErrBadConfig, err)
	}
	return body, jobs.Spec{TraceBin: body, Tech: tech, Tag: r.URL.Query().Get("tag")}, nil
}

// pixelsLeft returns budget minus w*h, or -1 when w*h does not fit in
// budget, so a chain of calls stays negative once one fails. It divides
// before it multiplies: sizes whose product would overflow are rejected,
// not wrapped.
func pixelsLeft(budget, w, h int) int {
	if budget < 0 || w < 0 || h < 0 || (w > 0 && h > budget/w) {
		return -1
	}
	return budget - w*h
}

// forwardSubmit proxies a submission to its ring owner, serving from the
// local read-through cache when possible. Reports whether the request was
// handled; false means the owner was unreachable and the caller should fall
// back to local simulation (degraded mode — availability over strict
// ownership; the jobs run twice in the worst case, never zero times).
func (s *Server) forwardSubmit(w http.ResponseWriter, r *http.Request, owner string, key jobs.Key, body []byte, contentType string) bool {
	// Read-through: a completed result this node recently fetched for the
	// same signature is served locally — elimination without even a hop.
	if rep := s.cluster.CachedResult(key); rep != nil {
		s.relayReply(w, r, rep, key, relayReadThrough)
		return true
	}
	rep, err := s.cluster.ForwardSubmit(r.Context(), owner, key, body, contentType, r.URL.Query())
	if err != nil {
		if errors.Is(err, cluster.ErrPeerUnavailable) {
			s.cluster.Metrics().Degraded.Add(1)
			s.log.Warn("owner unreachable; degrading to local simulation",
				"owner", owner, "key", key.String(), "err", err)
			return false
		}
		httpError(w, statusForError(err), err.Error())
		return true
	}
	if s.log.Enabled(r.Context(), slog.LevelDebug) {
		s.log.Debug("job forwarded", "owner", owner, "key", key.String())
	}
	s.relayReply(w, r, rep, key, relayForwarded)
	return true
}

// relayMode says how a peer reply reached this node, which decides the
// elimination accounting and caching relayReply applies.
type relayMode int

const (
	relayForwarded   relayMode = iota // fresh reply to a forwarded submit
	relayReadThrough                  // served from the local read-through cache
	relayStatus                       // proxied GET /v1/jobs/{id}
)

// relayReply writes a forwarded (or read-through-cached) owner reply to the
// client, rewriting the routing fields so follow-up GETs reach the owner.
func (s *Server) relayReply(w http.ResponseWriter, r *http.Request, rep *cluster.Reply, key jobs.Key, mode relayMode) {
	if rep.RetryAfter != "" {
		w.Header().Set("Retry-After", rep.RetryAfter)
	}
	var resp apihttp.JobResponse
	if err := json.Unmarshal(rep.Body, &resp); err != nil || resp.ID == "" {
		if rep.StatusCode >= 200 && rep.StatusCode < 300 {
			httpError(w, http.StatusBadGateway, cluster.ErrPeerBadResponse.Error())
			return
		}
		// Error replies (429, 503, 400...) relay as-is even when their
		// shape is not a job response.
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(rep.StatusCode)
		w.Write(rep.Body)
		return
	}
	resp.Node = rep.Owner
	resp.Location = apihttp.JobPath(resp.ID) + "?peer=" + url.QueryEscape(rep.Owner)
	// The reply's trace id is the *owner's view* of the hop that produced it
	// (a read-through hit may carry a long-finished trace). Overwrite with
	// this request's trace id so clients always correlate to their own call.
	resp.Trace = traceIDFrom(r.Context())
	switch mode {
	case relayReadThrough:
		// A read-through hit is an elimination from the submitter's point
		// of view even though the owner's original reply was the leader run.
		resp.Deduped = true
	case relayForwarded:
		if resp.Deduped {
			// The owner eliminated this job with a result (or in-flight
			// execution) some earlier submission — possibly through another
			// node — had produced: a cluster-wide cache hit.
			s.cluster.Metrics().RemoteHits.Add(1)
		}
		if resp.State == jobs.Done.String() && rep.StatusCode == http.StatusOK {
			s.cluster.StoreResult(key, rep)
		}
	}
	writeJSON(w, rep.StatusCode, resp)
}

func (s *Server) handleJobByID(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		httpError(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	id, _ := apihttp.JobID(r.URL.Path)
	// ?peer= names the owning node of a forwarded job (the Location a
	// clustered POST handed back). Proxy the lookup there — unlike submit,
	// a status lookup has no degraded fallback (the job state exists only
	// on the owner), so peer failures surface as typed 502/503.
	if peer := r.URL.Query().Get("peer"); peer != "" && s.cluster != nil &&
		r.Header.Get(cluster.ForwardHeader) == "" {
		np, err := cluster.NormalizeAddr(peer)
		if err != nil {
			httpError(w, http.StatusBadRequest, err.Error())
			return
		}
		if !s.cluster.IsSelf(np) {
			q := r.URL.Query()
			q.Del("peer")
			rep, err := s.cluster.ForwardStatus(r.Context(), np, id, q)
			if err != nil {
				status := statusForError(err)
				if ra := retryAfter(err); ra > 0 {
					w.Header().Set("Retry-After", strconv.Itoa(ra))
				}
				httpError(w, status, err.Error())
				return
			}
			s.relayReply(w, r, rep, jobs.Key{}, relayStatus)
			return
		}
	}
	job, ok := s.pool.Get(id)
	if !ok {
		httpError(w, http.StatusNotFound, fmt.Sprintf("unknown job %q", id))
		return
	}
	if wait := r.URL.Query().Get("wait"); wait != "" && wait != "0" && wait != "false" {
		ctx, cancel := context.WithTimeout(r.Context(), maxWait)
		defer cancel()
		job.Wait(ctx)
	}
	writeJSON(w, http.StatusOK, s.jobResponse(job, traceIDFrom(r.Context())))
}

// traceIDFrom extracts the request's trace id for response payloads; empty
// when the request is untraced.
func traceIDFrom(ctx context.Context) string {
	if tc, ok := obs.TraceFromContext(ctx); ok {
		return tc.TraceIDString()
	}
	return ""
}

func (s *Server) jobResponse(j *jobs.Job, traceID string) apihttp.JobResponse {
	resp := apihttp.JobResponse{
		ID:      j.ID,
		Key:     j.Key.String(),
		State:   j.State().String(),
		Deduped: j.Deduped,
		Trace:   traceID,
	}
	if res, err, ok := j.Result(); ok {
		if err != nil {
			resp.Error = err.Error()
		} else {
			sum := jobs.Summarize(res)
			resp.Result = &sum
		}
	}
	return resp
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status, code := "ok", http.StatusOK
	if s.draining.Load() {
		// 503 tells load balancers to stop routing here; in-flight work
		// still completes during the drain window.
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, apihttp.HealthResponse{
		Status:     status,
		Workers:    s.pool.Workers(),
		QueueDepth: s.pool.Metrics().QueueDepth(),
		UptimeSec:  int64(time.Since(s.start).Seconds()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	pw := promtext.NewWriter(w)
	s.pool.Metrics().WritePrometheus(pw)
	if st := s.pool.Store(); st != nil {
		st.Metrics().WritePrometheus(pw)
	}
	if s.cluster != nil {
		s.cluster.WritePrometheus(pw)
	}
	pw.Counter("resvc_http_requests_total", "HTTP requests served.", s.requests.Load())
	// Per-route/status request latency. Label sets are copied under the lock,
	// then rendered outside it (the writer locks each histogram itself).
	s.httpMu.Lock()
	labels := make([]httpLabel, 0, len(s.httpHists))
	for l := range s.httpHists {
		labels = append(labels, l)
	}
	sort.Slice(labels, func(i, j int) bool {
		if labels[i].route != labels[j].route {
			return labels[i].route < labels[j].route
		}
		return labels[i].status < labels[j].status
	})
	series := make([]promtext.HistSeries, len(labels))
	for i, l := range labels {
		series[i] = promtext.HistSeries{Labels: []string{l.route, strconv.Itoa(l.status)}, Hist: s.httpHists[l]}
	}
	s.httpMu.Unlock()
	pw.Histogram("resvc_http_request_duration_seconds", "HTTP request latency by normalized route and status code.",
		[]string{"route", "status"}, series...)
	pw.Gauge("resvc_result_cache_entries", "Cached simulation results.", float64(s.pool.CacheLen()))
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}

// statusForError maps error classes to HTTP statuses: client mistakes (bad
// trace, bad config, unknown benchmark) are 400, overload is 429, a
// draining pool is 503. Cluster-layer failures are gateway
// statuses — 503 + Retry-After for an unreachable peer, 502 for a peer that
// answered garbage. Anything unclassified is a server-side 500 — never
// blamed on the client.
func statusForError(err error) int {
	switch {
	case errors.Is(err, rerr.ErrBadTrace),
		errors.Is(err, rerr.ErrBadConfig),
		errors.Is(err, rerr.ErrUnknownBenchmark):
		return http.StatusBadRequest
	case errors.Is(err, jobs.ErrOverloaded):
		return http.StatusTooManyRequests
	case errors.Is(err, jobs.ErrClosed), errors.Is(err, cluster.ErrPeerUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, cluster.ErrPeerBadResponse):
		return http.StatusBadGateway
	}
	return http.StatusInternalServerError
}

// retryAfter suggests a client back-off in whole seconds for retryable
// rejections; 0 means no Retry-After header.
func retryAfter(err error) int {
	if errors.Is(err, jobs.ErrOverloaded) || errors.Is(err, cluster.ErrPeerUnavailable) {
		return 1
	}
	return 0
}
