package fault

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// Two plans with the same seed must make identical decisions at every site,
// independent of how other sites are interleaved.
func TestDeterministicAcrossInterleavings(t *testing.T) {
	build := func() *Plan {
		return New(42).
			With("a", Site{Prob: 0.3, Kinds: []Kind{Transient}}).
			With("b", Site{Prob: 0.5, Kinds: []Kind{Transient, Panic}})
	}
	// Each draw records what Check injected, a returned error or a
	// recovered panic, so the kind each fault drew shows too.
	check := func(p *Plan, site string) (got any) {
		defer func() {
			if r := recover(); r != nil {
				got = r
			}
		}()
		return p.Check(site)
	}
	draw := func(p *Plan, site string, n int) []string {
		var out []string
		for i := 0; i < n; i++ {
			out = append(out, fmt.Sprint(check(p, site)))
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

func TestParse(t *testing.T) {
	p, err := Parse(7, "server.accept:panic:0.5:2,store.write:transient:1")
	if err != nil {
		t.Fatal(err)
	}
	if p == nil {
		t.Fatal("nil plan for non-empty spec")
	}
	p.mu.Lock()
	sa, sw := p.sites[SiteServerAccept], p.sites[SiteStoreWrite]
	p.mu.Unlock()
	if sa == nil || sa.Prob != 0.5 || sa.Limit != 2 || sa.Kinds[0] != Panic {
		t.Fatalf("server.accept site = %+v", sa)
	}
	if sw == nil || sw.Prob != 1 || sw.Limit != 0 || sw.Kinds[0] != Transient {
		t.Fatalf("store.write site = %+v", sw)
	}

	if p, err := Parse(1, ""); err != nil || p != nil {
		t.Fatalf("empty spec: plan %v err %v, want nil/nil", p, err)
	}
	for _, bad := range []string{
		"x",
		"a:b:c",
		"store.sync:transient:2",
		"store.sync:panic:0.1:-1",
		"dram.read:panic:0.1",                // a site no code checks
		"store.wirte:transient:0.5",          // a misspelled site
		"server.accept:latency:0.1",          // no such kind
		"server.accept:transient:0.1:0:5ms",  // no fifth field
		"store.rename:transient:0.1,y:z:0.1", // one bad entry spoils the plan
	} {
		_, err := Parse(1, bad)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", bad)
			continue
		}
		entry := bad[strings.LastIndex(bad, ",")+1:]
		if !strings.Contains(err.Error(), fmt.Sprintf("%q", entry)) {
			t.Errorf("Parse(%q) = %v, want an error naming %q", bad, err, entry)
		}
	}
}

// The disabled (nil-plan) path must cost nothing: the production hooks stay
// wired unconditionally, like the obs tracer's nil path.
func TestDisabledZeroAlloc(t *testing.T) {
	var p *Plan
	if n := testing.AllocsPerRun(1000, func() {
		if p.Check(SiteServerAccept) != nil {
			t.Fatal("nil plan injected")
		}
	}); n != 0 {
		t.Fatalf("nil-plan Check allocates %v times per op, want 0", n)
	}
	// A live plan with the site unregistered must not allocate either.
	live := New(1).With("other", Site{Prob: 1})
	if n := testing.AllocsPerRun(1000, func() {
		if live.Check(SiteStoreWrite) != nil {
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
		if p.Check(SiteServerAccept) != nil {
			b.Fatal("nil plan injected")
		}
	}
}
