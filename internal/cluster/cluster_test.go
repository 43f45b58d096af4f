package cluster

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rendelim/internal/apihttp"
	"rendelim/internal/obs"
	"rendelim/internal/promtext"
)

func TestNormalizeAddr(t *testing.T) {
	cases := []struct {
		in, want string
		wantErr  bool
	}{
		{in: "127.0.0.1:8080", want: "127.0.0.1:8080"},
		{in: "http://127.0.0.1:8080", want: "127.0.0.1:8080"},
		{in: "https://Node-A.local:9000/", want: "node-a.local:9000"},
		{in: " 10.0.0.1:80 ", want: "10.0.0.1:80"},
		{in: "nohost", wantErr: true},
		{in: ":8080", wantErr: true},
		{in: "", wantErr: true},
	}
	for _, c := range cases {
		got, err := NormalizeAddr(c.in)
		if c.wantErr {
			if err == nil {
				t.Errorf("NormalizeAddr(%q) = %q, want error", c.in, got)
			} else if !errors.Is(err, ErrBadPeer) {
				t.Errorf("NormalizeAddr(%q) error %v does not wrap ErrBadPeer", c.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("NormalizeAddr(%q): %v", c.in, err)
		} else if got != c.want {
			t.Errorf("NormalizeAddr(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// Self-peering and duplicate peers are startup errors, not silent ring
// skew: a duplicate would double the member's vnode count, self-peering
// would forward requests back to the sender.
func TestValidatePeersRejectsSelfAndDuplicates(t *testing.T) {
	if _, _, err := ValidatePeers("127.0.0.1:1", []string{"127.0.0.1:2", "127.0.0.1:1"}); !errors.Is(err, ErrBadPeer) || !strings.Contains(err.Error(), "self") {
		t.Errorf("self-peering: got %v, want ErrBadPeer mentioning self", err)
	}
	// Duplicates are caught even across different spellings of one address.
	if _, _, err := ValidatePeers("127.0.0.1:1", []string{"127.0.0.1:2", "http://127.0.0.1:2"}); !errors.Is(err, ErrBadPeer) || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate peer: got %v, want ErrBadPeer mentioning duplicate", err)
	}
	self, peers, err := ValidatePeers("http://127.0.0.1:1", []string{"127.0.0.1:2", "127.0.0.1:3"})
	if err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if self != "127.0.0.1:1" || len(peers) != 2 {
		t.Errorf("normalized to %q / %v", self, peers)
	}
}

// The health loop must mark a peer down when /v1/healthz reports 503 (the
// draining state) or the connection fails, and back up when it recovers.
func TestHealthCheckHonorsDraining(t *testing.T) {
	var status atomic.Int32
	status.Store(http.StatusOK)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != apihttp.PathHealthz {
			t.Errorf("probe hit %s, want %s", r.URL.Path, apihttp.PathHealthz)
		}
		w.WriteHeader(int(status.Load()))
	}))
	defer peer.Close()
	addr := strings.TrimPrefix(peer.URL, "http://")

	c, err := New(Options{
		Self:           "127.0.0.1:1",
		Peers:          []string{addr},
		HealthInterval: 10 * time.Millisecond,
		HealthTimeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	waitFor := func(want bool, what string) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if c.PeerUp(addr) == want {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatalf("peer never became %s", what)
	}
	waitFor(true, "up")
	status.Store(http.StatusServiceUnavailable) // draining
	waitFor(false, "down (draining)")
	status.Store(http.StatusOK)
	waitFor(true, "up again")
}

// With the only peer down, the ring must route everything to self.
func TestOwnerFallsBackToSelfWhenPeersDown(t *testing.T) {
	c, err := New(Options{Self: "127.0.0.1:1", Peers: []string{"127.0.0.1:2"}})
	if err != nil {
		t.Fatal(err)
	}
	c.MarkPeer("127.0.0.1:2", false)
	for i := 0; i < 200; i++ {
		if o := c.Owner(testKey(i)); o != "127.0.0.1:1" {
			t.Fatalf("key %d routed to down peer %q", i, o)
		}
	}
}

// ForwardSubmit against a dead address must return ErrPeerUnavailable (the
// degraded-mode trigger), never a raw transport error.
func TestForwardSubmitPeerUnavailable(t *testing.T) {
	c, err := New(Options{
		Self:           "127.0.0.1:1",
		Peers:          []string{"127.0.0.1:9"},
		ForwardTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Port 9 (discard) is almost certainly closed; a refused connection is
	// the expected transport failure either way.
	key := testKey(7)
	_, ferr := c.ForwardSubmit(context.Background(), "127.0.0.1:9", key, []byte(`{}`), "application/json", nil)
	if !errors.Is(ferr, ErrPeerUnavailable) {
		t.Fatalf("got %v, want ErrPeerUnavailable", ferr)
	}
	// Forwarded-failure messages must identify the peer and the attempted
	// key, so the log line alone is actionable.
	for _, want := range []string{"127.0.0.1:9", key.String()} {
		if !strings.Contains(ferr.Error(), want) {
			t.Errorf("error %q does not mention %q", ferr, want)
		}
	}
	if c.Metrics().ForwardErrors.Load() != 1 {
		t.Errorf("ForwardErrors = %d, want 1", c.Metrics().ForwardErrors.Load())
	}
	if c.Metrics().ForwardSeconds.Count() != 1 {
		t.Errorf("ForwardSeconds count = %d, want 1 (failed hops are observed too)", c.Metrics().ForwardSeconds.Count())
	}
}

// A reachable peer answering non-JSON is a bad gateway, not a 500.
func TestForwardSubmitBadResponse(t *testing.T) {
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get(ForwardHeader); got != "127.0.0.1:1" {
			t.Errorf("forward header = %q, want self address", got)
		}
		w.Header().Set("Content-Type", "text/html")
		w.Write([]byte("<html>not a job</html>"))
	}))
	defer peer.Close()
	addr := strings.TrimPrefix(peer.URL, "http://")
	c, err := New(Options{Self: "127.0.0.1:1", Peers: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	_, ferr := c.ForwardSubmit(context.Background(), addr, testKey(1), []byte(`{}`), "application/json", nil)
	if !errors.Is(ferr, ErrPeerBadResponse) {
		t.Fatalf("got %v, want ErrPeerBadResponse", ferr)
	}
	if !strings.Contains(ferr.Error(), addr) {
		t.Errorf("error %q does not mention peer %q", ferr, addr)
	}
}

// A forwarded hop must carry the request's trace context across the wire as
// a W3C traceparent header — same trace id, fresh span id.
func TestForwardPropagatesTraceContext(t *testing.T) {
	tc := obs.NewTraceContext()
	var gotHeader atomic.Value
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotHeader.Store(r.Header.Get(obs.TraceparentHeader))
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"id":"j-000001","state":"done"}`))
	}))
	defer peer.Close()
	addr := strings.TrimPrefix(peer.URL, "http://")
	c, err := New(Options{Self: "127.0.0.1:1", Peers: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	ctx := obs.ContextWithTrace(context.Background(), tc)
	if _, err := c.ForwardSubmit(ctx, addr, testKey(3), []byte(`{}`), "application/json", nil); err != nil {
		t.Fatal(err)
	}
	hdr, _ := gotHeader.Load().(string)
	if hdr == "" {
		t.Fatal("forwarded request carried no traceparent header")
	}
	hopTC, err := obs.ParseTraceparent(hdr)
	if err != nil {
		t.Fatalf("peer received malformed traceparent %q: %v", hdr, err)
	}
	if hopTC.TraceID != tc.TraceID {
		t.Errorf("trace id changed across the hop: %s != %s", hopTC.TraceIDString(), tc.TraceIDString())
	}
	if hopTC.SpanID == tc.SpanID {
		t.Error("hop reused the parent span id; want a child span")
	}

	// Without a trace in the context, no header is sent.
	gotHeader.Store("")
	if _, err := c.ForwardSubmit(context.Background(), addr, testKey(3), []byte(`{}`), "application/json", nil); err != nil {
		t.Fatal(err)
	}
	if hdr, _ := gotHeader.Load().(string); hdr != "" {
		t.Errorf("untraced forward sent traceparent %q", hdr)
	}
}

// Read-through entries must expire after the TTL and stay bounded by the
// capacity.
func TestReadThroughTTLAndBounds(t *testing.T) {
	rt := newReadThrough(2, 30*time.Millisecond)
	k1, k2, k3 := testKey(1), testKey(2), testKey(3)
	rt.put(k1, &Reply{StatusCode: 200})
	rt.put(k2, &Reply{StatusCode: 200})
	rt.put(k3, &Reply{StatusCode: 200}) // evicts k1, the least recently used
	if rt.get(k1) != nil {
		t.Error("k1 survived past capacity")
	}
	if rt.get(k3) == nil {
		t.Error("k3 missing right after put")
	}
	if rt.len() > 2 {
		t.Errorf("len = %d, want <= 2", rt.len())
	}
	time.Sleep(40 * time.Millisecond)
	if rt.get(k3) != nil {
		t.Error("k3 survived past TTL")
	}
}

// An expired entry must leave the read-through cache entirely. Keys that
// expire and come back must not pile up behind the live entries, and must
// not make the cache evict a key that came back in place of an older one.
func TestReadThroughExpiryLeavesNoTrace(t *testing.T) {
	churn := newReadThrough(2, time.Microsecond)
	k := testKey(1)
	for i := 0; i < 1000; i++ {
		churn.put(k, &Reply{StatusCode: 200})
		time.Sleep(2 * time.Microsecond)
		if churn.get(k) != nil {
			t.Fatal("entry survived past its TTL")
		}
	}
	if n := churn.entries.Len(); n != 0 {
		t.Errorf("%d entries held after 1000 expired puts of one key, want 0", n)
	}

	const ttl = 200 * time.Millisecond
	rt := newReadThrough(2, ttl)
	a, b, c := testKey(1), testKey(2), testKey(3)
	rt.put(a, &Reply{StatusCode: 200})
	time.Sleep(ttl * 3 / 5)
	rt.put(b, &Reply{StatusCode: 200})
	time.Sleep(ttl * 3 / 5) // a has expired, b has not
	if rt.get(a) != nil {
		t.Fatal("a survived past its TTL")
	}
	rt.put(a, &Reply{StatusCode: 200}) // a is back, newer than b
	rt.put(c, &Reply{StatusCode: 200}) // evicts b, the least recently used
	if rt.get(a) == nil {
		t.Error("the re-put key was evicted in place of an older one")
	}
	if rt.get(b) != nil {
		t.Error("the least recently used key survived an eviction")
	}
}

// CachedResult must count both the remote-hit and read-through counters.
func TestCachedResultCounters(t *testing.T) {
	c, err := New(Options{Self: "127.0.0.1:1", Peers: []string{"127.0.0.1:2"}, ResultTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	k := testKey(7)
	if c.CachedResult(k) != nil {
		t.Fatal("hit on empty cache")
	}
	c.StoreResult(k, &Reply{StatusCode: 200, Body: []byte(`{}`)})
	if c.CachedResult(k) == nil {
		t.Fatal("miss right after store")
	}
	if got := c.Metrics().RemoteHits.Load(); got != 1 {
		t.Errorf("RemoteHits = %d, want 1", got)
	}
	if got := c.Metrics().ReadThroughHits.Load(); got != 1 {
		t.Errorf("ReadThroughHits = %d, want 1", got)
	}
}

// The ring_share gauge exposes every member, self included, sorted by
// address, with shares summing to one; peer_up lists the peers only. Two
// scrapes render byte-identically: the family is written in ring order,
// never in map order.
func TestOwnershipView(t *testing.T) {
	c, err := New(Options{Self: "127.0.0.1:1", Peers: []string{"127.0.0.1:3", "127.0.0.1:2"}})
	if err != nil {
		t.Fatal(err)
	}
	var first, second bytes.Buffer
	c.WritePrometheus(promtext.NewWriter(&first))
	c.WritePrometheus(promtext.NewWriter(&second))
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatalf("two renders differ:\n%s\nvs\n%s", first.Bytes(), second.Bytes())
	}
	m, err := promtext.Parse(&first)
	if err != nil {
		t.Fatal(err)
	}
	if f := m.Families["resvc_cluster_ring_share"]; f.Type != "gauge" {
		t.Errorf("ring share family = %+v, want a gauge", f)
	}
	var members, peers []string
	var total float64
	for _, s := range m.Samples {
		switch s.Name {
		case "resvc_cluster_ring_share":
			members = append(members, s.Label("peer"))
			total += s.Value
		case "resvc_cluster_peer_up":
			peers = append(peers, s.Label("peer"))
		}
	}
	if want := []string{"127.0.0.1:1", "127.0.0.1:2", "127.0.0.1:3"}; !reflect.DeepEqual(members, want) {
		t.Errorf("ring share members = %v, want %v", members, want)
	}
	if want := []string{"127.0.0.1:2", "127.0.0.1:3"}; !reflect.DeepEqual(peers, want) {
		t.Errorf("peer_up peers = %v, want %v", peers, want)
	}
	if total < 0.999 || total > 1.001 {
		t.Errorf("shares sum to %v, want 1", total)
	}
}
