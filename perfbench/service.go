package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rendelim/internal/apihttp"
	"rendelim/internal/gpusim"
	"rendelim/internal/jobs"
	"rendelim/internal/obs"
	"rendelim/internal/promtext"
	"rendelim/internal/trace"
	"rendelim/internal/workload"
)

// The service workloads each time one request class, so their latency
// percentiles never depend on a chosen share of hot and cold traffic:
// service-cold times jobs with keys new to the ring, service-hot times
// repeats of completed jobs.
const (
	serviceCold = "service-cold"
	serviceHot  = "service-hot"
)

const (
	svcWidth, svcHeight, svcFrames = 128, 96, 8
	svcNodes                       = 3
	// The ring is launched launchesBefore times before the timed phase (the
	// last launch serves it) and launchesAfter times after it, so start-up
	// is sampled at two moments of the run; setup_s comes from the median
	// node launch over all of them.
	launchesBefore, launchesAfter = 5, 4
	// keyBudget caps the distinct keys a run submits, below resvc's default
	// 512-entry result LRU.
	keyBudget = 480
	// coldKeysPerSecond sizes a service-cold run's fixed work from its
	// measured seconds: about the rate two clients sustained on a 2-vCPU
	// host (17.0 to 20.0 cold requests/s over seeds 1 and 11 to 15). Fixed
	// work keeps the ring's memory and store counters comparable between a
	// slow and a fast tree.
	coldKeysPerSecond = 18
	// hotKeys alias jobs are completed, untimed, before service-hot times
	// repeats of them: a working set well inside the 512-entry result LRU
	// and the 256-entry read-through cache that completes in a few seconds.
	hotKeys = 60
)

// svcJob is one job the clients submit, an alias spec or an encoded trace
// upload, and the reply it got when first submitted.
type svcJob struct {
	alias   string
	params  workload.Params
	upload  bool
	body    []byte
	done    bool
	remote  bool // the entry node forwarded it to another owner
	summary jobs.ResultSummary
}

// svcLoad is the state the client goroutines share.
type svcLoad struct {
	client *http.Client
	entry  string
	rep    *report
	repMu  sync.Mutex
	jobs   []*svcJob // in submission order

	next      atomic.Int64
	exhausted atomic.Bool
	non2xx    atomic.Int64

	// service-hot draws its repeats from the completed jobs the entry node
	// owns and from those another node owns.
	local, remote []*svcJob
	tracer        *obs.Tracer
}

// sample is one timed request.
type sample struct {
	upload bool
	ok     bool
	remote bool // the key is owned by another node
	ms     float64
}

func (l *svcLoad) check(ok bool, format string, args ...any) {
	l.repMu.Lock()
	l.rep.check(ok, format, args...)
	l.repMu.Unlock()
}

// post submits one job with ?wait=1 and decodes the reply.
func (l *svcLoad) post(body []byte, contentType, query string) (apihttp.JobResponse, int, time.Duration, error) {
	var resp apihttp.JobResponse
	url := "http://" + l.entry + apihttp.PathJobs + "?wait=1" + query
	t0 := time.Now()
	r, err := l.client.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		return resp, 0, time.Since(t0), err
	}
	b, err := io.ReadAll(r.Body)
	r.Body.Close()
	d := time.Since(t0)
	if r.StatusCode < 200 || r.StatusCode > 299 {
		l.non2xx.Add(1)
	}
	if err != nil {
		return resp, r.StatusCode, d, err
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		return resp, r.StatusCode, d, fmt.Errorf("reply %q: %w", b, err)
	}
	return resp, r.StatusCode, d, nil
}

// submit posts j and checks the reply: a first submission must complete
// without deduplication and is recorded; a repeat must come back
// deduplicated with the first reply's summary.
func (l *svcLoad) submit(j *svcJob, repeat bool) sample {
	contentType, query := "application/json", ""
	if j.upload {
		contentType, query = "application/octet-stream", "&tech=re"
	}
	resp, status, d, err := l.post(j.body, contentType, query)
	ok := err == nil && status == http.StatusOK && resp.State == "done" && resp.Result != nil && resp.Deduped == repeat
	if ok && repeat {
		ok = *resp.Result == j.summary
	}
	l.check(ok, "%s seed %d (upload %v, repeat %v): status %d state %q deduped %v err %v",
		j.alias, j.params.Seed, j.upload, repeat, status, resp.State, resp.Deduped, err)
	if ok && !repeat {
		j.summary, j.remote, j.done = *resp.Result, resp.Node != "", true
	}
	return sample{upload: j.upload, ok: ok, remote: j.remote, ms: ms(d)}
}

// clientLoop runs one closed-loop client: each request waits for its reply
// before the next is sent. A hot client repeats seeded draws from the
// completed jobs until the deadline; a cold client submits the next unsent
// job until none is left, the deadline only bounding a run on a host far
// slower than the sizing assumes.
//
// Which node owns a key follows the ring's addresses, which are new ports
// at every launch, so hot draws take a key the entry node owns one time in
// three, the share each node owns in a balanced three-node ring, instead of
// leaving the split between the local-cache and read-through paths to the
// ports.
func (l *svcLoad) clientLoop(id int, seed int64, hot bool, deadline time.Time) []sample {
	rng := rand.New(rand.NewSource(seed*31 + int64(id)))
	th := l.tracer.Thread(fmt.Sprintf("client %d", id))
	var out []sample
	for time.Now().Before(deadline) {
		var j *svcJob
		span := "hot"
		if hot {
			from := l.remote
			if rng.Intn(svcNodes) == 0 {
				from = l.local
			}
			j = from[rng.Intn(len(from))]
		} else {
			i := int(l.next.Add(1)) - 1
			if i >= len(l.jobs) {
				l.exhausted.Store(true)
				break
			}
			j, span = l.jobs[i], "cold"
			if j.upload {
				span = "upload"
			}
		}
		th.Begin(span)
		out = append(out, l.submit(j, hot))
		th.End()
	}
	return out
}

// svcPlan makes a run's n jobs from the seed. Aliases go in seeded
// permutations, ten at a time, so every alias appears equally often, and
// texture seeds make every key distinct. With uploads, every third job is
// the upload of a distinct encoded trace, taken from the aliases whose bytes
// change with the seed (some scenes have no seeded texture). It also
// returns the mean time of the Benchmark.Build calls it made.
func svcPlan(seed int64, n int, uploads bool) ([]*svcJob, time.Duration, error) {
	rng := rand.New(rand.NewSource(seed))
	suite := workload.Suite()
	var build time.Duration
	var builds int
	encode := func(b workload.Benchmark, p workload.Params) ([]byte, error) {
		builds++
		return encodeTrace(b, p, &build)
	}
	var varied []workload.Benchmark
	if uploads {
		for _, b := range suite {
			p := workload.Params{Width: svcWidth, Height: svcHeight, Frames: svcFrames, Seed: 1}
			x, err := encode(b, p)
			if err != nil {
				return nil, 0, err
			}
			p.Seed = 2
			y, err := encode(b, p)
			if err != nil {
				return nil, 0, err
			}
			if !bytes.Equal(x, y) {
				varied = append(varied, b)
			}
		}
		if len(varied) == 0 {
			return nil, 0, fmt.Errorf("no workload alias varies its trace with the seed")
		}
	}

	var out []*svcJob
	var perm, uperm []int
	var nCold, nUpload int
	seen := map[string]bool{}
	for i := 0; i < n; i++ {
		p := workload.Params{Width: svcWidth, Height: svcHeight, Frames: svcFrames}
		if uploads && i%3 == 2 {
			if nUpload%len(varied) == 0 {
				uperm = rng.Perm(len(varied))
			}
			b := varied[uperm[nUpload%len(varied)]]
			p.Seed = seed*100000 + 50000 + int64(nUpload)
			nUpload++
			body, err := encode(b, p)
			if err != nil {
				return nil, 0, err
			}
			if seen[string(body)] {
				return nil, 0, fmt.Errorf("upload %s seed %d repeats an earlier trace", b.Alias, p.Seed)
			}
			seen[string(body)] = true
			out = append(out, &svcJob{alias: b.Alias, params: p, upload: true, body: body})
			continue
		}
		if nCold%len(suite) == 0 {
			perm = rng.Perm(len(suite))
		}
		alias := suite[perm[nCold%len(suite)]].Alias
		p.Seed = seed*100000 + int64(nCold) + 1
		nCold++
		body, err := json.Marshal(apihttp.SubmitRequest{
			Alias: alias, Tech: "re", Width: p.Width, Height: p.Height, Frames: p.Frames, Seed: p.Seed,
		})
		if err != nil {
			return nil, 0, err
		}
		out = append(out, &svcJob{alias: alias, params: p, body: body})
	}
	if builds > 0 {
		build /= time.Duration(builds)
	}
	return out, build, nil
}

// encodeTrace builds b's trace with p, adding the time Benchmark.Build took
// to *build, and encodes it.
func encodeTrace(b workload.Benchmark, p workload.Params, build *time.Duration) ([]byte, error) {
	t0 := time.Now()
	tr := b.Build(p)
	*build += time.Since(t0)
	var enc bytes.Buffer
	if err := trace.Encode(&enc, tr); err != nil {
		return nil, fmt.Errorf("encode upload %s: %w", b.Alias, err)
	}
	return enc.Bytes(), nil
}

// node is one running resvc process.
type node struct {
	addr      string
	dir       string
	traceFile string
	cmd       *exec.Cmd
	exited    chan struct{}
}

// freePorts reserves n loopback ports by listening and closing.
func freePorts(n int) ([]string, error) {
	var addrs []string
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve port: %w", err)
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// startRing launches the three nodes one after another, each with its own
// data dir and every other flag at its default, and returns each node's
// time from launch until it answers /v1/healthz with 200. Launching in turn
// keeps the nodes from competing for the CPUs while they start.
func startRing(bin, dir string, client *http.Client, traced bool) ([]*node, []time.Duration, error) {
	addrs, err := freePorts(svcNodes)
	if err != nil {
		return nil, nil, err
	}
	var nodes []*node
	var times []time.Duration
	for i, addr := range addrs {
		n := &node{addr: addr, dir: filepath.Join(dir, "node"+strconv.Itoa(i)), exited: make(chan struct{})}
		args := []string{"-addr", addr, "-cluster-addr", addr, "-data-dir", n.dir}
		for _, peer := range addrs {
			if peer != addr {
				args = append(args, "-peer", peer)
			}
		}
		if traced {
			n.traceFile = filepath.Join(dir, "trace"+strconv.Itoa(i)+".json")
			args = append(args, "-tracefile", n.traceFile)
		}
		logf, err := os.Create(filepath.Join(dir, "node"+strconv.Itoa(i)+".log"))
		if err != nil {
			stopRing(nodes)
			return nil, nil, err
		}
		n.cmd = exec.Command(bin, args...)
		n.cmd.Stdout, n.cmd.Stderr = logf, logf
		// Should the benchmark itself be killed, the kernel kills the node.
		n.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		t0 := time.Now()
		if err := n.cmd.Start(); err != nil {
			logf.Close()
			stopRing(nodes)
			return nil, nil, fmt.Errorf("start resvc: %w", err)
		}
		go func() {
			n.cmd.Wait()
			logf.Close()
			close(n.exited)
		}()
		nodes = append(nodes, n)
		if err := waitHealthy(client, n, 20*time.Second); err != nil {
			stopRing(nodes)
			return nil, nil, err
		}
		times = append(times, time.Since(t0))
	}
	return nodes, times, nil
}

func waitHealthy(client *http.Client, n *node, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-n.exited:
			return fmt.Errorf("resvc %s exited during start-up (see %s.log)", n.addr, n.dir)
		default:
		}
		r, err := client.Get("http://" + n.addr + apihttp.PathHealthz)
		if err == nil {
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
			if r.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	return fmt.Errorf("resvc %s not healthy within %v", n.addr, limit)
}

// stopRing sends SIGTERM (resvc drains, then writes its trace file) and
// waits for every node to exit, killing any that outlasts the drain.
func stopRing(nodes []*node) {
	for _, n := range nodes {
		n.cmd.Process.Signal(syscall.SIGTERM)
	}
	for _, n := range nodes {
		select {
		case <-n.exited:
		case <-time.After(40 * time.Second):
			n.cmd.Process.Kill()
			<-n.exited
		}
	}
}

// scrape reads and parses one node's /v1/metrics.
func scrape(client *http.Client, addr string) (*promtext.Metrics, error) {
	r, err := client.Get("http://" + addr + apihttp.PathMetrics)
	if err != nil {
		return nil, err
	}
	defer r.Body.Close()
	return promtext.Parse(r.Body)
}

// waitRing waits until every node sees both peers up, so the timed phase
// routes through the whole ring instead of degrading.
func waitRing(client *http.Client, nodes []*node, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		up := 0
		for _, n := range nodes {
			m, err := scrape(client, n.addr)
			if err == nil && m.Sum("resvc_cluster_peer_up", nil) == svcNodes-1 {
				up++
			}
		}
		if up == len(nodes) {
			return nil
		}
		time.Sleep(50 * time.Millisecond)
	}
	return fmt.Errorf("ring did not converge within %v", limit)
}

// scrapes are one /v1/metrics scrape per node.
type scrapes []*promtext.Metrics

func scrapeAll(client *http.Client, nodes []*node) (scrapes, error) {
	var out scrapes
	for _, n := range nodes {
		m, err := scrape(client, n.addr)
		if err != nil {
			return nil, fmt.Errorf("scrape %s: %w", n.addr, err)
		}
		out = append(out, m)
	}
	return out, nil
}

// counterDelta sums a counter's growth over the given node indexes.
func counterDelta(before, after scrapes, name string, sel map[string]string, idx ...int) float64 {
	var d float64
	for _, i := range idx {
		d += after[i].Sum(name, sel) - before[i].Sum(name, sel)
	}
	return d
}

// histMeanMS is a histogram's mean growth in milliseconds over the given
// node indexes: the delta of its _sum over the delta of its _count.
func histMeanMS(before, after scrapes, name string, sel map[string]string, idx ...int) float64 {
	var sum, count float64
	for _, i := range idx {
		a, _ := after[i].Histogram(name, sel)
		b, _ := before[i].Histogram(name, sel)
		sum += a.Sum - b.Sum
		count += float64(a.Count) - float64(b.Count)
	}
	return ratio(sum*1e3, count)
}

// errorCounters are the resvc counters that grow only when a layer fails.
var errorCounters = []string{
	"resvc_jobs_failed_total", "resvc_jobs_retries_total",
	"resvc_store_write_errors_total", "resvc_store_sync_errors_total", "resvc_store_rename_errors_total",
	"resvc_cluster_forward_errors_total", "resvc_cluster_degraded_total",
}

// runService launches the ring, warms it, times one request class from
// closed-loop clients, and checks every reply against an in-process run.
func runService(o options) (*report, error) {
	hot := o.workload == serviceHot
	bin := filepath.Join(o.work, "bin", "resvc")
	if _, err := os.Stat(bin); err != nil {
		return nil, fmt.Errorf("resvc binary: %w", err)
	}
	dir, err := os.MkdirTemp(o.work, "service-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	rep := newReport()
	client := &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 8, DisableCompression: true},
	}
	defer client.CloseIdleConnections()

	keys := hotKeys
	if !hot {
		keys = min(o.seconds*coldKeysPerSecond, keyBudget)
	}
	jobList, build, err := svcPlan(o.seed, keys, !hot)
	if err != nil {
		return nil, err
	}

	var setups []float64 // seconds from each node's launch until it is healthy
	launch := func(i int) ([]*node, error) {
		ldir := filepath.Join(dir, "launch"+strconv.Itoa(i))
		if err := os.MkdirAll(ldir, 0o755); err != nil {
			return nil, err
		}
		ns, ds, err := startRing(bin, ldir, client, o.traced)
		if err != nil {
			// A reserved port can be taken between reservation and launch;
			// one retry on fresh ports and a fresh directory covers that.
			fmt.Fprintln(os.Stderr, "perfbench: ring launch failed, retrying:", err)
			ldir += "-retry"
			if err := os.MkdirAll(ldir, 0o755); err != nil {
				return nil, err
			}
			if ns, ds, err = startRing(bin, ldir, client, o.traced); err != nil {
				return nil, err
			}
		}
		for _, d := range ds {
			setups = append(setups, d.Seconds())
		}
		return ns, nil
	}
	var nodes []*node
	for i := 0; i < launchesBefore; i++ {
		ns, err := launch(i)
		if err != nil {
			return nil, err
		}
		if i < launchesBefore-1 {
			stopRing(ns)
			continue
		}
		nodes = ns
	}
	stopped := false
	defer func() {
		if !stopped {
			stopRing(nodes)
		}
	}()
	if err := waitRing(client, nodes, 15*time.Second); err != nil {
		return nil, err
	}

	clients := concurrency()
	l := &svcLoad{client: client, entry: nodes[0].addr, rep: rep, jobs: jobList}
	if o.traced {
		l.tracer = obs.NewTracer()
	}
	// Warm-up, untimed: connections, pools and caches. service-hot completes
	// every job it will repeat and repeats each once; service-cold sends each
	// client's first three jobs.
	if hot {
		forEach(len(l.jobs), clients, func(i int) { l.submit(l.jobs[i], false) })
		var warmed []*svcJob
		for _, j := range l.jobs {
			if !j.done {
				continue
			}
			warmed = append(warmed, j)
			if j.remote {
				l.remote = append(l.remote, j)
			} else {
				l.local = append(l.local, j)
			}
		}
		if len(l.local) == 0 || len(l.remote) == 0 {
			return nil, fmt.Errorf("of %d warm-up jobs, %d completed on the entry node and %d on others; want some of each",
				len(l.jobs), len(l.local), len(l.remote))
		}
		forEach(len(warmed), clients, func(i int) { l.submit(warmed[i], true) })
	} else {
		warm := min(3*clients, len(l.jobs))
		l.next.Store(int64(warm))
		forEach(warm, clients, func(i int) { l.submit(l.jobs[i], false) })
	}
	before, err := scrapeAll(client, nodes)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	if !hot {
		deadline = start.Add(min(5*time.Duration(o.seconds)*time.Second, 2*time.Minute))
	}
	perClient := make([][]sample, clients)
	forEach(clients, clients, func(c int) { perClient[c] = l.clientLoop(c, o.seed, hot, deadline) })
	elapsed := time.Since(start)

	after, err := scrapeAll(client, nodes)
	if err != nil {
		return nil, err
	}
	var rss float64
	for _, n := range nodes {
		v, err := procPeakRSSMiB(n.cmd.Process.Pid)
		if err != nil {
			return nil, fmt.Errorf("peak RSS of resvc %s: %w", n.addr, err)
		}
		rss += v
	}
	stopRing(nodes)
	stopped = true
	for i := 0; i < launchesAfter; i++ {
		ns, err := launch(launchesBefore + i)
		if err != nil {
			return nil, err
		}
		stopRing(ns)
	}

	var all, coldMS, uploadMS []float64
	var completed, remote int
	for _, ss := range perClient {
		for _, s := range ss {
			all = append(all, s.ms)
			if s.ok {
				completed++
			}
			if s.remote {
				remote++
			}
			if s.upload {
				uploadMS = append(uploadMS, s.ms)
			} else {
				coldMS = append(coldMS, s.ms)
			}
		}
	}
	decodeNS, decodeBytes := checkService(l, clients)

	all3 := []int{0, 1, 2}
	framesSim := counterDelta(before, after, "resvc_sim_frames_executed_total", nil, all3...)
	// Every cold job is simulated exactly once; no repeat is simulated.
	wantFrames := 0
	if !hot {
		wantFrames = completed * svcFrames
	}
	rep.check(framesSim == float64(wantFrames), "ring simulated %v frames in the timed phase, want %d", framesSim, wantFrames)
	serviceErrors := float64(l.non2xx.Load())
	for _, name := range errorCounters {
		d := counterDelta(before, after, name, nil, all3...)
		rep.check(d == 0, "%s grew by %v in the timed phase", name, d)
		serviceErrors += d
	}

	lat := summarize(all)
	v := rep.values
	v["requests_per_s"] = float64(completed) / elapsed.Seconds()
	v["p50_ms"] = lat.P50
	v["p90_ms"] = lat.P90
	v["frames_per_s"] = v["requests_per_s"] * svcFrames
	v["setup_s"] = svcNodes * median(setups)
	v["max_rss_mb"] = rss

	latCold, latUp := summarize(coldMS), summarize(uploadMS)
	if o.traced {
		coldJobs := 0.0
		if !hot {
			coldJobs = float64(len(all))
		}
		stage := func(s string) float64 {
			return histMeanMS(before, after, "resvc_stage_latency_seconds", map[string]string{"stage": s}, all3...)
		}
		v["workload.build_ms"] = ms(build)
		v["trace.decode_ns_per_byte"] = ratio(decodeNS, decodeBytes)
		v["jobs.queue_ms_mean"] = stage(jobs.StageQueue)
		v["jobs.build_ms_mean"] = stage(jobs.StageBuild)
		v["jobs.simulate_ms_mean"] = stage(jobs.StageSimulate)
		v["jobs.eliminated_ratio"] = ratio(counterDelta(before, after, "resvc_jobs_deduped_total", nil, all3...),
			counterDelta(before, after, "resvc_jobs_submitted_total", nil, all3...))
		v["jobs.frames_simulated"] = framesSim
		v["store.wal_appends_per_cold_job"] = ratio(counterDelta(before, after, "resvc_store_records_appended_total", nil, all3...), coldJobs)
		v["store.snapshots_per_cold_job"] = ratio(counterDelta(before, after, "resvc_store_snapshots_written_total", nil, all3...), coldJobs)
		v["server.jobs_ms_mean"] = histMeanMS(before, after, "resvc_http_request_duration_seconds", map[string]string{"route": apihttp.PathJobs}, 0)
		v["cluster.forwarded_ratio"] = ratio(counterDelta(before, after, "resvc_cluster_forwarded_total", nil, 0), float64(len(all)))
		v["cluster.forward_ms_mean"] = histMeanMS(before, after, "resvc_cluster_forward_seconds", nil, 0)
		if hot {
			v["cluster.readthrough_hit_ratio"] = ratio(counterDelta(before, after, "resvc_cluster_readthrough_hits_total", nil, 0), float64(remote))
		} else {
			v["service.cold_p50_ms"] = latCold.P50
			v["service.cold_p90_ms"] = latCold.P90
			v["service.upload_p50_ms"] = latUp.P50
		}
		v["service.errors"] = serviceErrors
	}

	r := rep.record
	r["resolution"] = fmt.Sprintf("%dx%d", svcWidth, svcHeight)
	r["frames_per_job"] = svcFrames
	r["nodes"] = svcNodes
	r["clients"] = clients
	r["measured_s"] = elapsed.Seconds()
	r["keys"] = len(jobList)
	r["requests"] = map[string]int{"all": len(all), "completed": completed, "remote_key": remote, "upload": len(uploadMS)}
	r["latency"] = lat
	if !hot {
		r["latency_cold"] = latCold
		r["latency_upload"] = latUp
		r["ended_by_deadline"] = !l.exhausted.Load()
	}
	r["setup_node_launches_s"] = setups
	r["service_errors"] = serviceErrors
	if o.traced {
		r["client_spans_ms"] = foldedMS(foldSpans(l.tracer.Events(), 0))
		nodeSpans, err := foldNodeTraces(nodes)
		if err != nil {
			return nil, err
		}
		r["node_spans_ms"] = nodeSpans
	}
	return rep, nil
}

// foldedMS renders folded spans as total milliseconds and counts per name.
func foldedMS(t spanTotals) map[string]any {
	out := map[string]any{}
	for name, us := range t.total {
		out[name] = map[string]float64{"total_ms": us / 1e3, "self_ms": t.self[name] / 1e3, "count": float64(t.count[name])}
	}
	return out
}

// foldNodeTraces folds each node's -tracefile output per span name.
func foldNodeTraces(nodes []*node) (map[string]any, error) {
	out := map[string]any{}
	for i, n := range nodes {
		b, err := os.ReadFile(n.traceFile)
		if err != nil {
			return nil, fmt.Errorf("node trace: %w", err)
		}
		var tf obs.TraceFile
		if err := json.Unmarshal(b, &tf); err != nil {
			return nil, fmt.Errorf("node trace %s: %w", n.traceFile, err)
		}
		out["node"+strconv.Itoa(i)] = foldedMS(foldSpans(tf.TraceEvents, 0))
	}
	return out, nil
}

// checkService checks, after timing, every completed job's first reply
// against jobs.Summarize of an in-process run of the same alias spec; for an
// upload that is the alias job for the same trace. It also times
// trace.Decode over the upload bodies.
func checkService(l *svcLoad, workers int) (decodeNS, decodeBytes float64) {
	var done []*svcJob
	for _, j := range l.jobs {
		if !j.done {
			continue
		}
		done = append(done, j)
		if j.upload {
			t0 := time.Now()
			tr, err := trace.Decode(bytes.NewReader(j.body))
			decodeNS += float64(time.Since(t0).Nanoseconds())
			decodeBytes += float64(len(j.body))
			l.check(err == nil && tr.Name == j.alias, "decode upload %s: %v", j.alias, err)
		}
	}
	forEach(len(done), workers, func(i int) {
		j := done[i]
		spec := jobs.Spec{Alias: j.alias, Params: j.params, Tech: gpusim.RE}
		res, err := jobs.DefaultRun(context.Background(), spec, func(string, time.Duration) {})
		ok := err == nil && jobs.Summarize(res) == j.summary
		l.check(ok, "%s seed %d (upload %v): reply summary differs from an in-process run (err %v)", j.alias, j.params.Seed, j.upload, err)
	})
	return decodeNS, decodeBytes
}
