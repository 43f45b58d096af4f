// Package cluster shards the resvc job service across a static set of
// nodes. Every job signature — the (trace CRC32, config hash) pair the jobs
// package already eliminates on — hashes onto a consistent-hash ring whose
// members are the cluster's node addresses; the ring names exactly one
// *owner* per signature, and every node forwards submissions it does not own
// to that owner. The owner's singleflight and LRU result cache thereby
// become cluster-wide: an identical job submitted to *any* node is
// eliminated if *any* node has already rendered it, which is Rendering
// Elimination lifted from tiles to jobs to the whole fleet (frame coherence
// is a property of the workload, not of the node that receives it).
//
// Membership is static (the -peer flags at startup) but routing is not:
// peers are health-checked over their /v1/healthz endpoint, and a peer that is
// down — or draining, which reports 503 — is skipped on the ring walk so its
// key range rebalances onto its successors until it returns.
package cluster

import (
	"fmt"
	"sort"

	"rendelim/internal/crc"
	"rendelim/internal/jobs"
)

// defaultReplicas is the number of virtual nodes per member. 128 points per
// member keeps the ownership imbalance of a small static cluster within a
// few percent without making ring rebuilds or walks measurable.
const defaultReplicas = 128

// ring is an immutable consistent-hash ring: members are hashed onto a
// uint32 circle at replicas points each, and a key is owned by the first
// member point at or clockwise-after the key's hash. Rebuilt only when
// membership changes (never at steady state), so reads need no lock.
type ring struct {
	points  []ringPoint // sorted by hash
	members []string    // sorted, deduplicated
}

type ringPoint struct {
	hash  uint32
	owner string
}

// newRing places every member on the circle. Members must already be
// normalized and deduplicated (New enforces that).
func newRing(members []string, replicas int) *ring {
	if replicas <= 0 {
		replicas = defaultReplicas
	}
	r := &ring{
		members: append([]string(nil), members...),
		points:  make([]ringPoint, 0, len(members)*replicas),
	}
	sort.Strings(r.members)
	for _, m := range r.members {
		for i := 0; i < replicas; i++ {
			h := crc.Checksum([]byte(fmt.Sprintf("%s#%d", m, i)))
			r.points = append(r.points, ringPoint{hash: h, owner: m})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on owner so the ring order is deterministic across
		// nodes even in the (astronomically unlikely) event of a collision.
		return r.points[i].owner < r.points[j].owner
	})
	return r
}

// keyHash maps a job signature onto the circle. The signature pair is
// re-hashed (rather than used raw) so similar signatures don't cluster.
func keyHash(key jobs.Key) uint32 {
	return crc.Checksum([]byte(key.String()))
}

// owner returns the member owning key, walking clockwise from the key's
// point and skipping members for which alive returns false. Returns "" only
// when no member is alive (alive==nil means all are).
func (r *ring) owner(key jobs.Key, alive func(string) bool) string {
	if len(r.points) == 0 {
		return ""
	}
	h := keyHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, len(r.members))
	for i := 0; i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.owner] {
			continue
		}
		seen[p.owner] = true
		if alive == nil || alive(p.owner) {
			return p.owner
		}
		if len(seen) == len(r.members) {
			break
		}
	}
	return ""
}

// ownership returns each member's fraction of the hash circle — how keys
// would distribute with every member alive (resvc_cluster_ring_share).
func (r *ring) ownership() map[string]float64 {
	out := make(map[string]float64, len(r.members))
	if len(r.points) == 0 {
		return out
	}
	const circle = float64(1 << 32)
	for i, p := range r.points {
		next := r.points[(i+1)%len(r.points)]
		// The arc from this point (exclusive) to the next (inclusive)
		// belongs to the next point's owner under "first point at or after
		// h" ownership; uint32 subtraction handles the wraparound arc.
		span := next.hash - p.hash
		out[next.owner] += float64(span) / circle
	}
	return out
}
