package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"rendelim/internal/apihttp"
	"rendelim/internal/jobs"
	"rendelim/internal/lru"
	"rendelim/internal/obs"
)

// Typed forwarding errors. The server maps them onto HTTP statuses that
// tell the truth about *where* the failure happened: an unreachable peer is
// a retryable 503 (with Retry-After), a peer that answered garbage is a 502
// — neither is a mislabeled 500 blaming this node.
var (
	// ErrPeerUnavailable reports a transport-level failure reaching the
	// owner: connection refused, reset, or the forward deadline expiring.
	// The submit path falls back to local simulation on it (degraded
	// mode); the status path surfaces it as 503 + Retry-After.
	ErrPeerUnavailable = errors.New("cluster: peer unavailable")

	// ErrPeerBadResponse reports an owner that was reachable but answered
	// with something that is not a job response (a non-JSON body, say).
	// Surfaced as 502.
	ErrPeerBadResponse = errors.New("cluster: bad peer response")
)

// ForwardHeader marks a request as already forwarded once. The owner
// processes such a request locally no matter what its own ring says, so a
// transiently divergent ring view (mid health transition) can never bounce
// a request around the fleet.
const ForwardHeader = "X-Resvc-Forwarded"

// Reply is the owner's verbatim answer to a forwarded request: the HTTP
// status, the response body (a server.JobResponse in JSON), and the
// Retry-After hint if the owner sent one. The body is relayed untouched
// except for routing fields, so a result is byte-identical no matter which
// node the client happened to reach.
type Reply struct {
	StatusCode int
	Body       []byte
	RetryAfter string
	Owner      string
}

// ForwardSubmit proxies one POST /v1/jobs to the owner. body and contentType
// are the client's original payload; query is relayed so ?wait and ?tech
// survive the hop. key is the job signature being routed — it rides into
// error wrap messages (satisfying "which key failed against which peer")
// and the forwarded-hop trace span.
func (c *Cluster) ForwardSubmit(ctx context.Context, owner string, key jobs.Key, body []byte, contentType string, query url.Values) (*Reply, error) {
	c.metrics.Forwarded.Add(1)
	u := "http://" + owner + apihttp.PathJobs
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("%w: peer %s: key %s: %v", ErrPeerBadResponse, owner, key, err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	return c.roundTrip(ctx, req, owner, "key "+key.String(), "cluster.forward")
}

// ForwardStatus proxies one GET /v1/jobs/{id} to the owner; query relays ?wait.
func (c *Cluster) ForwardStatus(ctx context.Context, owner, id string, query url.Values) (*Reply, error) {
	c.metrics.StatusForwarded.Add(1)
	u := "http://" + owner + apihttp.PathJobs + "/" + url.PathEscape(id)
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	req, err := http.NewRequest(http.MethodGet, u, nil)
	if err != nil {
		return nil, fmt.Errorf("%w: peer %s: job %s: %v", ErrPeerBadResponse, owner, id, err)
	}
	return c.roundTrip(ctx, req, owner, "job "+id, "cluster.status")
}

// roundTrip executes one forwarded hop with the forward deadline, the
// loop-prevention header, the propagated trace context, and a tracer span
// carrying the peer address. what names the routed object ("key <sig>" or
// "job <id>") for error wrap messages, so a forwarded-failure log line
// identifies both the peer and what was being asked of it.
func (c *Cluster) roundTrip(ctx context.Context, req *http.Request, owner, what, span string) (*Reply, error) {
	ctx, cancel := context.WithTimeout(ctx, c.forwardTimeout)
	defer cancel()
	req = req.WithContext(ctx)
	req.Header.Set(ForwardHeader, c.self)

	// Distributed tracing: the request's trace context crosses the hop as a
	// W3C traceparent header with a fresh span id, so the receiving node's
	// spans and log lines join the same trace.
	tc, traced := obs.TraceFromContext(ctx)
	if traced {
		tc = tc.Child()
		req.Header.Set(obs.TraceparentHeader, tc.Traceparent())
	}

	th := c.spans.Get()
	if traced {
		th.BeginArgStr(span+" "+owner, "trace_id", tc.TraceIDString())
	} else {
		th.Begin(span + " " + owner)
	}
	start := time.Now()
	resp, err := c.client.Do(req)
	elapsed := time.Since(start)
	th.End()
	c.spans.Put(th)
	c.metrics.ForwardSeconds.Observe(elapsed.Seconds())

	if err != nil {
		c.metrics.ForwardErrors.Add(1)
		c.log.Warn("forward failed", "peer", owner, "what", what, "path", req.URL.Path,
			"elapsed", elapsed, "err", err)
		return nil, fmt.Errorf("%w: peer %s: %s: %v", ErrPeerUnavailable, owner, what, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 4<<20))
	if err != nil {
		c.metrics.ForwardErrors.Add(1)
		return nil, fmt.Errorf("%w: peer %s: %s: reading body: %v", ErrPeerUnavailable, owner, what, err)
	}
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusNotFound &&
		ct != "" && !isJSON(ct) {
		return nil, fmt.Errorf("%w: peer %s: %s: content-type %q", ErrPeerBadResponse, owner, what, ct)
	}
	return &Reply{
		StatusCode: resp.StatusCode,
		Body:       body,
		RetryAfter: resp.Header.Get("Retry-After"),
		Owner:      owner,
	}, nil
}

func isJSON(ct string) bool {
	return strings.HasPrefix(ct, "application/json")
}

// ---------------------------------------------------------------------------
// Read-through result cache

// readThroughSize caps the read-through cache's entries.
const readThroughSize = 256

// rtEntry is one cached completed-job reply.
type rtEntry struct {
	reply   *Reply
	expires time.Time
}

// readThrough is a TTL+LRU cache of *completed* replies a non-owner has
// seen from owners, so repeated submissions of a hot signature are served
// locally without even a forwarded hop. Entries expire after the TTL — the
// owner remains the source of truth; this is a bounded staleness window,
// the cluster analogue of the simulator's refresh interval.
type readThrough struct {
	mu      sync.Mutex
	ttl     time.Duration
	entries *lru.Cache[jobs.Key, rtEntry]
}

func newReadThrough(capacity int, ttl time.Duration) *readThrough {
	return &readThrough{ttl: ttl, entries: lru.New[jobs.Key, rtEntry](capacity)}
}

// get returns a fresh cached reply, or nil. An expired entry is dropped.
func (r *readThrough) get(key jobs.Key) *Reply {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.entries.Get(key)
	if !ok {
		return nil
	}
	if time.Now().After(e.expires) {
		r.entries.Remove(key)
		return nil
	}
	return e.reply
}

// put caches a completed reply under key.
func (r *readThrough) put(key jobs.Key, reply *Reply) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries.Put(key, rtEntry{reply: reply, expires: time.Now().Add(r.ttl)})
}

func (r *readThrough) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.entries.Len()
}

// CachedResult returns a fresh read-through reply for key, or nil when
// read-through is disabled or the entry is missing/expired.
func (c *Cluster) CachedResult(key jobs.Key) *Reply {
	if c.rt == nil {
		return nil
	}
	if rep := c.rt.get(key); rep != nil {
		c.metrics.ReadThroughHits.Add(1)
		c.metrics.RemoteHits.Add(1)
		return rep
	}
	return nil
}

// StoreResult caches a completed reply for key at this (non-owner) node.
func (c *Cluster) StoreResult(key jobs.Key, rep *Reply) {
	if c.rt == nil || rep == nil {
		return
	}
	c.rt.put(key, rep)
}

// ReadThroughLen reports the read-through cache size.
func (c *Cluster) ReadThroughLen() int {
	if c.rt == nil {
		return 0
	}
	return c.rt.len()
}
