package fault

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// Two plans with the same seed must make identical decisions at every site,
// independent of how other sites are interleaved.
func TestDeterministicAcrossInterleavings(t *testing.T) {
	build := func() *Plan {
		return New(42).
			With("a", Site{Prob: 0.3, Kinds: []Kind{Transient}}).
			With("b", Site{Prob: 0.5, Kinds: []Kind{Transient, Latency}})
	}
	// Each draw records its error and the site's fired count, so a latency
	// fault, which returns nil, still shows.
	draw := func(p *Plan, site string, n int) []string {
		var out []string
		for i := 0; i < n; i++ {
			err := p.Check(site)
			out = append(out, fmt.Sprintf("%v #%d", err, p.Fired(site)))
		}
		return out
	}

	// Plan 1: all of a, then all of b. Plan 2: interleaved.
	p1 := build()
	a1 := draw(p1, "a", 50)
	b1 := draw(p1, "b", 50)

	p2 := build()
	var a2, b2 []string
	for i := 0; i < 50; i++ {
		a2 = append(a2, draw(p2, "a", 1)...)
		b2 = append(b2, draw(p2, "b", 1)...)
	}

	for i := range a1 {
		if a1[i] != a2[i] || b1[i] != b2[i] {
			t.Fatalf("draw %d differs across interleavings: a %q vs %q, b %q vs %q",
				i, a1[i], a2[i], b1[i], b2[i])
		}
	}
}

func TestLimitBoundsInjections(t *testing.T) {
	p := New(1).With("s", Site{Prob: 1, Limit: 3, Kinds: []Kind{Transient}})
	fired := 0
	for i := 0; i < 100; i++ {
		if p.Check("s") != nil {
			fired++
		}
	}
	if fired != 3 || p.Fired("s") != 3 {
		t.Fatalf("fired %d (Fired()=%d), want 3", fired, p.Fired("s"))
	}
}

func TestErrorMatchesSentinel(t *testing.T) {
	p := New(1).With("s", Site{Prob: 1, Limit: 1, Kinds: []Kind{Transient}})
	err := p.Check("s")
	if err == nil || !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected match", err)
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Site != "s" || fe.Seq != 1 {
		t.Fatalf("bad fault error %+v", err)
	}
}

func TestPanicKind(t *testing.T) {
	p := New(1).With("s", Site{Prob: 1, Limit: 1, Kinds: []Kind{Panic}})
	defer func() {
		r := recover()
		fe, ok := r.(*Error)
		if !ok || fe.Kind != Panic {
			t.Fatalf("recovered %v, want *Error with Panic kind", r)
		}
	}()
	p.Check("s")
	t.Fatal("Check did not panic")
}

func TestLatencyKindSleepsAndReturnsNil(t *testing.T) {
	p := New(1).With("s", Site{Prob: 1, Limit: 1, Kinds: []Kind{Latency}, Latency: 20 * time.Millisecond})
	start := time.Now()
	if err := p.Check("s"); err != nil {
		t.Fatalf("latency fault returned error %v", err)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("slept only %v, want >= 20ms", d)
	}
}

func TestParse(t *testing.T) {
	p, err := Parse(7, "dram.read:panic:0.5:2,server.accept:latency:1:0:5ms")
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("nil plan for non-empty spec")
	}
	p.mu.Lock()
	dr, sa := p.sites["dram.read"], p.sites["server.accept"]
	p.mu.Unlock()
	if dr == nil || dr.Prob != 0.5 || dr.Limit != 2 || dr.Kinds[0] != Panic {
		t.Fatalf("dram.read site = %+v", dr)
	}
	if sa == nil || sa.Kinds[0] != Latency || sa.Latency != 5*time.Millisecond {
		t.Fatalf("server.accept site = %+v", sa)
	}

	if p, err := Parse(1, ""); err != nil || p != nil {
		t.Fatalf("empty spec: plan %v err %v, want nil/nil", p, err)
	}
	for _, bad := range []string{"x", "a:b:c", "s:transient:2", "s:panic:0.1:-1", "s:panic:0.1:0:zz"} {
		if _, err := Parse(1, bad); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
		}
	}
}

// The disabled (nil-plan) path must cost nothing: the production hooks stay
// wired unconditionally, like the obs tracer's nil path.
func TestDisabledZeroAlloc(t *testing.T) {
	var p *Plan
	if n := testing.AllocsPerRun(1000, func() {
		if p.Check(SiteDRAMRead) != nil {
			t.Fatal("nil plan injected")
		}
	}); n != 0 {
		t.Fatalf("nil-plan Check allocates %v times per op, want 0", n)
	}
	// A live plan with the site unregistered must not allocate either.
	live := New(1).With("other", Site{Prob: 1})
	if n := testing.AllocsPerRun(1000, func() {
		if live.Check(SiteDRAMRead) != nil {
			t.Fatal("unregistered site injected")
		}
	}); n != 0 {
		t.Fatalf("unregistered-site Check allocates %v times per op, want 0", n)
	}
}

func BenchmarkCheckDisabled(b *testing.B) {
	var p *Plan
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if p.Check(SiteDRAMRead) != nil {
			b.Fatal("nil plan injected")
		}
	}
}
