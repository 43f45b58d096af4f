// Command resvc is the simulation-job daemon: it serves gpusim runs over
// HTTP with Rendering Elimination applied at job granularity — a CRC32
// signature of each job's inputs eliminates re-runs of identical
// (trace, config, model) submissions before they enter the worker pool.
//
// Usage:
//
//	resvc [-addr :8080] [-workers N] [-tile-workers 0] [-cache 512]
//	      [-timeout 30m] [-max-body 64MiB] [-drain 30s]
//	      [-inject PLAN] [-inject-seed 1] [-log-level info] [-log-format text]
//	      [-cluster-addr host:port] [-peer host:port]... [-health-interval 2s]
//	      [-result-ttl 30s] [-tracefile out.json] [-data-dir DIR]
//
// Durability: with -data-dir the node keeps each job's spec and completed
// result as CRC-checked snapshot files under that directory, plus a
// frame-boundary checkpoint of each running job once per second of
// simulation (a job that ends sooner writes none). A spec lives until its
// job ends, so on startup the node reads only the jobs that were running
// when the process died (corrupt snapshots are quarantined — never a
// refusal to boot), and each resumes from its last persisted checkpoint,
// losing at most a second plus a frame of simulation. A submission that
// misses the elimination cache reads its key's result file, so identical
// submissions are deduplicated across restarts and cache evictions. Job
// keys sign the simulator's model fingerprint, so after an upgrade that
// changes simulated numbers the stored results no longer match and each
// job is simulated once more.
//
// Clustering: with one or more -peer flags (and -cluster-addr naming this
// node's own advertised address), the nodes form a static consistent-hash
// ring over job signatures. A node that receives a job it does not own
// proxies it to the owner, so the owner's result cache and singleflight
// eliminate identical jobs cluster-wide; if the owner is unreachable the
// node degrades to simulating locally. Peers are health-checked over
// /v1/healthz — a draining peer (503) is routed around before it goes away.
//
// Overload and failure handling: the submission queue is bounded — when it
// is full, POST /v1/jobs sheds load with 429 + Retry-After instead of queueing
// unboundedly. A job runs once: one that errors, panics or outlives -timeout
// fails alone, never blocking others, and is not retried — a re-run of the
// same inputs panics at the same frame, and more time is what -timeout
// sets. Only a process restart resumes a job, from the checkpoint it
// persisted under -data-dir. On SIGTERM/SIGINT
// the service drains gracefully: /v1/healthz flips to 503 {"status":"draining"},
// the listener closes, and in-flight jobs get -drain to finish.
//
// Fault injection: -inject arms a seeded plan (-inject-seed) of
// site:kind:prob[:limit] entries, with kind transient or panic, at the
// process boundary only: server.accept, before a request is routed, and
// store.write, store.sync and store.rename, the steps of a snapshot
// publish. An entry naming any other site, or a store.* site without
// -data-dir, fails startup.
//
// Endpoints:
//
//	POST /v1/jobs       submit a workload spec (JSON) or a trace binary; ?wait=1 blocks
//	GET  /v1/jobs/{id}  job status and result summary
//	GET  /v1/healthz    liveness
//	GET  /v1/metrics    Prometheus text: submissions, eliminations, latencies,
//	                    per-pipeline-stage simulated cycles, tile classes
//	GET  /debug/pprof   runtime profiling (CPU, heap, goroutines, ...)
//	GET  /debug/vars    expvar: build info and Go runtime vars (node state
//	                    is in /v1/metrics only)
//	GET  /debug/events  flight recorder: the last 256 records the node
//	                    logged, at its -log-level, as JSON
//
// Every request runs under a W3C trace context: an inbound traceparent
// header is honored (forwarded hops re-propagate it), otherwise a fresh
// trace id is minted; the id is attached to every request log line and
// returned in job responses. -tracefile captures the spans Chrome-trace
// style; restat renders the fleet's metrics as a live dashboard.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"rendelim/internal/cluster"
	"rendelim/internal/fault"
	"rendelim/internal/jobs"
	"rendelim/internal/obs"
	"rendelim/internal/server"
	"rendelim/internal/store"
)

// injectExample is the -inject plan the flag's help suggests.
const injectExample = "server.accept:panic:0.01:4,store.write:transient:0.05"

func main() {
	if err := run(os.Args[1:], nil, make(chan os.Signal, 1), true); err != nil {
		fmt.Fprintln(os.Stderr, "resvc:", err)
		os.Exit(1)
	}
}

// run starts the daemon. ready (if non-nil) receives the bound address once
// listening; sigs delivers shutdown signals (main installs SIGINT/SIGTERM
// when installSignals is set). Factored out of main for the e2e test.
func run(args []string, ready chan<- string, sigs chan os.Signal, installSignals bool) error {
	fs := flag.NewFlagSet("resvc", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	workers := fs.Int("workers", 0, "concurrent simulation workers (0 = host CPUs / tile-workers)")
	tileWorkers := fs.Int("tile-workers", 0, "raster-phase goroutines per simulation (0/1 = serial, -1 = one per CPU); never changes results")
	cacheSize := fs.Int("cache", 512, "LRU result cache entries")
	timeout := fs.Duration("timeout", 30*time.Minute, "job deadline (0 = none)")
	maxBody := fs.Int64("max-body", 64<<20, "max trace upload bytes")
	drain := fs.Duration("drain", 30*time.Second, "graceful shutdown budget")
	inject := fs.String("inject", "", "fault-injection plan of site:kind:prob[:limit] entries, e.g. '"+injectExample+"'; sites server.accept, store.write, store.sync, store.rename (store.* need -data-dir); kinds transient, panic (chaos testing; empty = off)")
	injectSeed := fs.Int64("inject-seed", 1, "fault-injection PRNG seed")
	logLevel := fs.String("log-level", "", "log level: debug, info, warn, error (default info; env "+obs.EnvLogLevel+")")
	logFormat := fs.String("log-format", "", "log format: text or json (default text; env "+obs.EnvLogFormat+")")
	clusterAddr := fs.String("cluster-addr", "", "this node's advertised host:port for clustering (required with -peer)")
	var peers peerList
	fs.Var(&peers, "peer", "peer node host:port; repeat for each member (enables clustering)")
	healthInterval := fs.Duration("health-interval", 2*time.Second, "gap between peer /v1/healthz probes")
	resultTTL := fs.Duration("result-ttl", 30*time.Second, "how long a non-owner serves a remote result locally (read-through cache; negative = off)")
	dataDir := fs.String("data-dir", "", "durable state directory: spec/result/checkpoint snapshots; interrupted jobs resume from it after a restart, and a result-cache miss reads its stored result (empty = memory-only)")
	traceFile := fs.String("tracefile", "", "write a Chrome trace-event JSON (HTTP request and cluster forward spans) here on shutdown")
	if err := fs.Parse(args); err != nil {
		return err
	}

	log, err := obs.Setup(*logLevel, *logFormat)
	if err != nil {
		return err
	}
	// Every record the node logs is also kept for /debug/events.
	journal := obs.NewJournal(log.Handler())
	log = slog.New(journal)
	slog.SetDefault(log)

	plan, err := fault.Parse(*injectSeed, *inject)
	if err != nil {
		return err
	}
	if plan != nil && *dataDir == "" {
		// Only the store checks the store.* sites, and it opens only with
		// -data-dir: without one such an entry would never fire.
		for _, entry := range strings.Split(*inject, ",") {
			entry = strings.TrimSpace(entry)
			if strings.HasPrefix(entry, "store.") {
				return fmt.Errorf("-inject entry %q needs -data-dir: only the store checks its site", entry)
			}
		}
	}
	if plan != nil {
		log.Warn("fault injection armed", "plan", *inject, "seed", *injectSeed)
	}

	var tracer *obs.Tracer
	if *traceFile != "" {
		tracer = obs.NewTracer()
		// pid-tag the spans so traces from several nodes merge into one
		// Perfetto timeline with a labeled track group per node.
		procName := "resvc " + *addr
		if *clusterAddr != "" {
			procName = "resvc " + *clusterAddr
		}
		tracer.SetProcess(os.Getpid(), procName)
	}

	// Cluster configuration is validated before anything listens: duplicate
	// peers or self-peering would silently skew ring ownership, so they are
	// startup errors, not warnings.
	var clus *cluster.Cluster
	if len(peers) > 0 {
		if *clusterAddr == "" {
			return fmt.Errorf("-peer requires -cluster-addr (this node's advertised host:port)")
		}
		clus, err = cluster.New(cluster.Options{
			Self:           *clusterAddr,
			Peers:          peers,
			HealthInterval: *healthInterval,
			ResultTTL:      *resultTTL,
			Logger:         log,
			Tracer:         tracer,
		})
		if err != nil {
			return err
		}
	} else if *clusterAddr != "" {
		return fmt.Errorf("-cluster-addr without any -peer flags; nothing to cluster with")
	}

	// The store opens (and reads its pending jobs) before the pool exists;
	// the pool's constructor then resubmits them.
	var st *store.Store
	if *dataDir != "" {
		st, err = store.Open(*dataDir, store.Options{Fault: plan, Logger: log})
		if err != nil {
			return err
		}
		sm := st.Metrics()
		log.Info("durable store open", "dir", st.Dir(),
			"jobs_recovered", sm.JobsRecovered.Load(),
			"checkpoints_recovered", sm.CheckpointsRecovered.Load(),
			"snapshots_quarantined", sm.SnapshotsQuarantined.Load())
	}

	pool := jobs.NewPool(
		jobs.WithWorkers(*workers),
		jobs.WithCacheSize(*cacheSize),
		jobs.WithTimeout(*timeout),
		jobs.WithLogger(log),
		jobs.WithTileWorkers(*tileWorkers),
		jobs.WithStore(st),
	)
	srv := server.New(pool, server.Limits{MaxBodyBytes: *maxBody})
	srv.SetLogger(log)
	srv.SetFaultPlan(plan)
	srv.SetTracer(tracer)
	srv.SetJournal(journal)
	if clus != nil {
		srv.SetCluster(clus)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if clus != nil {
		clus.Start()
		defer clus.Stop()
		log.Info("cluster armed", "self", clus.Self(), "members", len(clus.Members()))
	}
	httpSrv := &http.Server{
		Handler: srv.Handler(),
		// Slow-loris hardening: a client trickling headers or a body can
		// hold a connection for at most these budgets. WriteTimeout stays
		// unset because ?wait=1 responses legitimately block up to the
		// job-wait cap.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
		ErrorLog:          slog.NewLogLogger(log.Handler(), slog.LevelWarn),
	}

	log.Info("listening", "addr", ln.Addr().String(),
		"workers", pool.Workers(), "cache_entries", *cacheSize)
	if ready != nil {
		ready <- ln.Addr().String()
	}

	if installSignals {
		signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
		defer signal.Stop(sigs)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return err
	case sig := <-sigs:
		log.Info("draining", "signal", sig.String(), "budget", *drain)
	}

	// Flip /v1/healthz to 503 "draining" first so load balancers stop routing
	// here, then stop accepting, then drain the pool.
	srv.StartDraining()
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		log.Warn("http shutdown", "err", err)
	}
	if err := pool.Close(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Warn("pool drain", "err", err)
	}

	if tracer != nil {
		if werr := tracer.WriteFile(*traceFile); werr != nil {
			log.Warn("trace write", "path", *traceFile, "err", werr)
		} else {
			log.Info("trace written", "path", *traceFile, "events", tracer.Len())
		}
	}

	// Report job elimination the way the simulator reports tile elimination.
	m := pool.Metrics()
	log.Info("shutdown complete",
		"jobs_submitted", m.Submitted.Load(),
		"jobs_eliminated", m.Deduped.Load(),
		"elimination_ratio", fmt.Sprintf("%.3f", m.EliminationRatio()),
		"jobs_completed", m.Completed.Load(),
		"jobs_failed", m.Failed.Load())
	return nil
}

// peerList collects repeated -peer flags.
type peerList []string

// String implements flag.Value.
func (p *peerList) String() string { return strings.Join(*p, ",") }

// Set implements flag.Value; each occurrence appends one peer.
func (p *peerList) Set(v string) error {
	if strings.TrimSpace(v) == "" {
		return fmt.Errorf("empty -peer value")
	}
	*p = append(*p, v)
	return nil
}
