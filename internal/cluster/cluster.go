package cluster

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rendelim/internal/apihttp"
	"rendelim/internal/jobs"
	"rendelim/internal/obs"
)

// ErrBadPeer reports an invalid -peer configuration: a malformed address, a
// duplicate, or the node listed as its own peer. Configuration errors are
// fatal at startup — a duplicate ring member would silently double-count
// ring slots and skew ownership, so it is rejected instead.
var ErrBadPeer = errors.New("cluster: bad peer")

// Options configures a Cluster. Self and Peers are required; everything else
// has working defaults.
type Options struct {
	// Self is this node's advertised address (host:port) — the address
	// peers use to reach it, which must match how they list it in their
	// own -peer flags so every node derives the same ring.
	Self string

	// Peers are the other members' advertised addresses. Order does not
	// matter (the ring sorts); duplicates and Self are rejected.
	Peers []string

	// HealthInterval is the gap between /v1/healthz probes of each peer;
	// default 2s. HealthTimeout bounds one probe; default 1s.
	HealthInterval time.Duration
	HealthTimeout  time.Duration

	// ResultTTL bounds how long a non-owner serves a completed result it
	// fetched from the owner without re-asking (the read-through cache of
	// readThroughSize entries). Default 30s; 0 selects the default,
	// negative disables read-through.
	ResultTTL time.Duration

	// ForwardTimeout bounds one forwarded submit/status round trip,
	// *excluding* any ?wait deadline the client asked for (the owner holds
	// the request while the job runs). Default 15 minutes.
	ForwardTimeout time.Duration

	// Logger receives membership transitions; default slog.Default.
	Logger *slog.Logger

	// Tracer, when non-nil, records one span per forwarded hop
	// ("cluster.forward" / "cluster.status") so remote time is visible in
	// the same Chrome-trace timeline as the simulator's pipeline spans.
	Tracer *obs.Tracer
}

// peerState is one peer's health record.
type peerState struct {
	addr string
	up   atomic.Bool
}

// Cluster is a node's view of the fleet: the ring, each peer's liveness,
// the forwarding client and the read-through result cache.
type Cluster struct {
	self    string
	ring    *ring
	peers   map[string]*peerState // excludes self
	client  *http.Client
	log     *slog.Logger
	metrics *Metrics
	rt      *readThrough
	tracer  *obs.Tracer
	spans   *obs.SpanPool

	healthInterval time.Duration
	healthTimeout  time.Duration
	forwardTimeout time.Duration

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// NormalizeAddr canonicalizes a peer address: scheme stripped, host:port
// required, host lowercased. Returns an error wrapping ErrBadPeer when the
// address is malformed.
func NormalizeAddr(addr string) (string, error) {
	a := strings.TrimSpace(addr)
	a = strings.TrimPrefix(a, "http://")
	a = strings.TrimPrefix(a, "https://")
	a = strings.TrimSuffix(a, "/")
	host, port, err := net.SplitHostPort(a)
	if err != nil {
		return "", fmt.Errorf("%w: %q: want host:port: %v", ErrBadPeer, addr, err)
	}
	if host == "" || port == "" {
		return "", fmt.Errorf("%w: %q: empty host or port", ErrBadPeer, addr)
	}
	return strings.ToLower(host) + ":" + port, nil
}

// ValidatePeers normalizes and deduplicates peer addresses against self.
// Duplicates and self-peering are configuration mistakes (they would
// double-count ring slots or forward requests back to the sender) and are
// rejected with a clear error rather than silently folded.
func ValidatePeers(self string, peers []string) (normSelf string, normPeers []string, err error) {
	normSelf, err = NormalizeAddr(self)
	if err != nil {
		return "", nil, fmt.Errorf("self address: %w", err)
	}
	seen := map[string]string{normSelf: self}
	for _, p := range peers {
		np, err := NormalizeAddr(p)
		if err != nil {
			return "", nil, err
		}
		if np == normSelf {
			return "", nil, fmt.Errorf("%w: %q is this node's own address (self-peering)", ErrBadPeer, p)
		}
		if prev, dup := seen[np]; dup {
			return "", nil, fmt.Errorf("%w: duplicate peer %q (already given as %q)", ErrBadPeer, p, prev)
		}
		seen[np] = p
		normPeers = append(normPeers, np)
	}
	return normSelf, normPeers, nil
}

// New validates the membership and builds the cluster. The health loop does
// not start until Start; before the first probe completes every peer is
// assumed up (optimistic routing — a wrong guess degrades to local
// simulation, never to an error).
func New(opts Options) (*Cluster, error) {
	self, peers, err := ValidatePeers(opts.Self, opts.Peers)
	if err != nil {
		return nil, err
	}
	if opts.HealthInterval <= 0 {
		opts.HealthInterval = 2 * time.Second
	}
	if opts.HealthTimeout <= 0 {
		opts.HealthTimeout = time.Second
	}
	if opts.ForwardTimeout <= 0 {
		opts.ForwardTimeout = 15 * time.Minute
	}
	ttl := opts.ResultTTL
	if ttl == 0 {
		ttl = 30 * time.Second
	}
	if opts.Logger == nil {
		opts.Logger = slog.Default()
	}
	c := &Cluster{
		self:           self,
		ring:           newRing(append([]string{self}, peers...), defaultReplicas),
		peers:          make(map[string]*peerState, len(peers)),
		client:         &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16, IdleConnTimeout: 90 * time.Second}},
		log:            opts.Logger,
		metrics:        newMetrics(),
		tracer:         opts.Tracer,
		spans:          obs.NewSpanPool(opts.Tracer, "cluster-hop"),
		healthInterval: opts.HealthInterval,
		healthTimeout:  opts.HealthTimeout,
		forwardTimeout: opts.ForwardTimeout,
		stop:           make(chan struct{}),
		done:           make(chan struct{}),
	}
	if ttl > 0 {
		c.rt = newReadThrough(readThroughSize, ttl)
	}
	for _, p := range peers {
		ps := &peerState{addr: p}
		ps.up.Store(true)
		c.peers[p] = ps
	}
	return c, nil
}

// Self returns this node's normalized advertised address.
func (c *Cluster) Self() string { return c.self }

// Members returns every ring member (self included), sorted.
func (c *Cluster) Members() []string { return append([]string(nil), c.ring.members...) }

// Metrics exposes the cluster counters for /metrics.
func (c *Cluster) Metrics() *Metrics { return c.metrics }

// Owner returns the address of the node owning key, considering only live
// members (self is always live from its own point of view). Falls back to
// self when every other member is down.
func (c *Cluster) Owner(key jobs.Key) string {
	owner := c.ring.owner(key, c.peerAlive)
	if owner == "" {
		return c.self
	}
	return owner
}

// IsSelf reports whether addr names this node.
func (c *Cluster) IsSelf(addr string) bool { return addr == c.self }

// PeerUp reports a peer's last observed health (true for self).
func (c *Cluster) PeerUp(addr string) bool { return c.peerAlive(addr) }

func (c *Cluster) peerAlive(addr string) bool {
	if addr == c.self {
		return true
	}
	ps, ok := c.peers[addr]
	return ok && ps.up.Load()
}

// Start launches the health-check loop. Every peer is probed once
// immediately, then every HealthInterval.
func (c *Cluster) Start() {
	go func() {
		defer close(c.done)
		c.checkAll()
		t := time.NewTicker(c.healthInterval)
		defer t.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-t.C:
				c.checkAll()
			}
		}
	}()
}

// Stop terminates the health loop; idempotent.
func (c *Cluster) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	<-c.done
}

// checkAll probes every peer concurrently (one slow peer must not delay the
// verdict on the others past HealthTimeout).
func (c *Cluster) checkAll() {
	var wg sync.WaitGroup
	for _, ps := range c.peers {
		wg.Add(1)
		go func(ps *peerState) {
			defer wg.Done()
			up := c.probe(ps.addr)
			if ps.up.Swap(up) != up {
				if up {
					c.log.Info("peer up", "peer", ps.addr)
				} else {
					c.log.Warn("peer down", "peer", ps.addr)
				}
			}
		}(ps)
	}
	wg.Wait()
	c.metrics.HealthChecks.Add(1)
}

// probe reports whether one peer is routable: /v1/healthz answering 200. A 503
// — which is what a draining peer reports — counts as down, so a drain
// rebalances that peer's key range onto its ring successors before its
// listener ever closes.
func (c *Cluster) probe(addr string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), c.healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+apihttp.PathHealthz, nil)
	if err != nil {
		return false
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// MarkPeer overrides one peer's health state. Exported for tests that need
// a deterministic ring view without waiting out a probe interval.
func (c *Cluster) MarkPeer(addr string, up bool) {
	if ps, ok := c.peers[addr]; ok {
		ps.up.Store(up)
	}
}
