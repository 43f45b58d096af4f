// Package fault is a seeded, deterministic fault-injection framework for
// chaos-testing the service where the process meets the outside world. A
// Plan maps instrumented sites (by name) to a probability, a bounded
// budget, and a set of fault kinds; each site draws from its own PRNG
// seeded from (plan seed, site name), so the decision sequence at one site
// never depends on how often other sites are exercised or on goroutine
// interleaving — the totals a chaos test observes are reproducible from the
// seed alone.
//
// The disabled path is free: a nil *Plan is a valid receiver and Check
// returns immediately without allocating (benchmarked at 0 allocs/op, like
// the obs tracer's nil path), so production code can keep the hooks wired
// unconditionally.
//
// # Instrumented sites
//
// These are every built-in hook, and the only sites -inject specs
// (site:kind:prob[:limit]) may name. The simulator and the job pool have
// none: a job's own failure is a panic in its run, which the pool contains
// whatever raised it.
//
//	server.accept  In the HTTP handler before routing. Transient sheds the
//	               request with 503; Panic exercises handler recovery.
//	store.write    Durability-layer file writes (snapshot bodies).
//	               Transient models a full or failing disk.
//	store.sync     Durability-layer fsync calls. Transient models an fsync
//	               error — the write may or may not have reached the
//	               platter.
//	store.rename   The atomic rename that publishes a snapshot. Transient
//	               models a crash between temp write and publish.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strconv"
	"strings"
	"sync"
)

// Instrumented site names. Sites are just strings — these constants cover
// the stack's built-in hooks, which are the sites Parse accepts.
const (
	// SiteServerAccept fires in the HTTP handler before routing.
	SiteServerAccept = "server.accept"
	// SiteStoreWrite / SiteStoreSync / SiteStoreRename fire in the
	// durability layer (internal/store) before file writes, fsyncs and the
	// atomic snapshot-publishing rename respectively, so seeded plans can
	// exercise disk failures. Transient is the natural kind for all three;
	// recovered state must stay uncorrupted no matter where they fire.
	SiteStoreWrite  = "store.write"
	SiteStoreSync   = "store.sync"
	SiteStoreRename = "store.rename"
)

// Kind is the failure mode an injection takes.
type Kind uint8

// Fault kinds.
const (
	Transient Kind = iota // an error returned from the site
	Panic                 // a panic thrown from the site
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Transient:
		return "transient"
	case Panic:
		return "panic"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Site configures injection at one site.
type Site struct {
	// Prob is the per-draw injection probability in [0, 1].
	Prob float64
	// Kinds are the candidate failure modes; an injection picks one
	// uniformly. Empty defaults to Transient only.
	Kinds []Kind
	// Limit bounds how many faults the site may inject in total; 0 means
	// unlimited. Chaos tests use it to bound how many jobs a plan fails.
	Limit int
}

// ErrInjected is the sentinel every injected fault error matches with
// errors.Is, so callers can tell injections from real failures.
var ErrInjected = errors.New("fault: injected")

// Error is one injected fault. Its fields identify the injection
// deterministically: Seq is the site's 1-based fired count.
type Error struct {
	Site string
	Kind Kind
	Seq  int
}

// Error implements error.
func (e *Error) Error() string {
	return fmt.Sprintf("fault: injected %s at %s (#%d)", e.Kind, e.Site, e.Seq)
}

// Is matches ErrInjected.
func (e *Error) Is(target error) bool { return target == ErrInjected }

// siteState is one registered site's mutable state.
type siteState struct {
	Site
	rng   *rand.Rand
	fired int
}

// Plan is a registry of sites to inject faults at. The zero value of the
// pointer (nil) is a valid, disabled plan. Check is safe for concurrent use.
type Plan struct {
	seed int64

	mu    sync.Mutex
	sites map[string]*siteState
}

// New creates an empty plan with the given seed.
func New(seed int64) *Plan {
	return &Plan{seed: seed, sites: make(map[string]*siteState)}
}

// With registers (or replaces) a site and returns the plan for chaining.
// It takes any name, so a test can arm a site of its own; Parse takes only
// the built-in ones. The site's PRNG is seeded from the plan seed and the
// site name, so registration order and cross-site interleaving never
// change a site's decision sequence.
func (p *Plan) With(name string, s Site) *Plan {
	if len(s.Kinds) == 0 {
		s.Kinds = []Kind{Transient}
	}
	h := fnv.New64a()
	h.Write([]byte(name))
	p.mu.Lock()
	p.sites[name] = &siteState{
		Site: s,
		rng:  rand.New(rand.NewSource(p.seed ^ int64(h.Sum64()))),
	}
	p.mu.Unlock()
	return p
}

// Check draws once at the named site. It returns nil on a nil plan, an
// unregistered site, an exhausted budget, or a no-fault draw. Otherwise it
// injects: Panic panics with a *Error, and Transient returns a *Error
// (matching ErrInjected) for the caller to surface.
func (p *Plan) Check(site string) error {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	st := p.sites[site]
	if st == nil || (st.Limit > 0 && st.fired >= st.Limit) || st.Prob <= 0 {
		p.mu.Unlock()
		return nil
	}
	if st.rng.Float64() >= st.Prob {
		p.mu.Unlock()
		return nil
	}
	st.fired++
	e := &Error{Site: site, Kind: st.Kinds[st.rng.Intn(len(st.Kinds))], Seq: st.fired}
	p.mu.Unlock()

	if e.Kind == Panic {
		panic(e)
	}
	return e
}

// Fired returns how many faults the named site has injected so far.
func (p *Plan) Fired(site string) int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if st := p.sites[site]; st != nil {
		return st.fired
	}
	return 0
}

// Parse builds a plan from a comma-separated flag value of
// site:kind:prob[:limit] entries, e.g.
//
//	server.accept:panic:0.01:4,store.write:transient:0.3
//
// Each site must be a built-in one (server.accept, store.write, store.sync
// or store.rename), so a misspelled site is an error rather than a plan that
// never fires. An empty spec returns a nil (disabled) plan.
func Parse(seed int64, spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := New(seed)
	for _, entry := range strings.Split(spec, ",") {
		parts := strings.Split(strings.TrimSpace(entry), ":")
		if len(parts) < 3 || len(parts) > 4 {
			return nil, fmt.Errorf("fault: bad spec entry %q (want site:kind:prob[:limit])", entry)
		}
		switch parts[0] {
		case SiteServerAccept, SiteStoreWrite, SiteStoreSync, SiteStoreRename:
		default:
			return nil, fmt.Errorf("fault: unknown site %q in %q (want %s, %s, %s or %s)",
				parts[0], entry, SiteServerAccept, SiteStoreWrite, SiteStoreSync, SiteStoreRename)
		}
		var kind Kind
		switch parts[1] {
		case "transient":
			kind = Transient
		case "panic":
			kind = Panic
		default:
			return nil, fmt.Errorf("fault: unknown kind %q in %q (want transient or panic)", parts[1], entry)
		}
		prob, err := strconv.ParseFloat(parts[2], 64)
		if err != nil || prob < 0 || prob > 1 {
			return nil, fmt.Errorf("fault: bad probability %q in %q", parts[2], entry)
		}
		s := Site{Prob: prob, Kinds: []Kind{kind}}
		if len(parts) == 4 {
			if s.Limit, err = strconv.Atoi(parts[3]); err != nil || s.Limit < 0 {
				return nil, fmt.Errorf("fault: bad limit %q in %q", parts[3], entry)
			}
		}
		p.With(parts[0], s)
	}
	return p, nil
}
