// Package fleet holds the shared machinery of the distributed serving
// tier: a consistent-hash ring that assigns compiled-artifact ownership
// to qmd replicas by fingerprint, a peer client through which a replica
// that misses its caches asks the owning peer's memory before compiling
// itself (groupcache-style), and the wire names (compile options, peer and
// worker headers) shared by qmd, the qgate front proxy and the qload load
// generator.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// DefaultVirtualNodes is the per-replica virtual-node count when a Ring
// is built with vnodes <= 0. 64 points per node keeps the load spread
// within a few percent of uniform for small fleets while the ring stays
// cheap to rebuild on a health transition.
const DefaultVirtualNodes = 64

// Ring is a consistent-hash ring over a fixed replica set. Ownership of a
// key is the first live virtual node clockwise from the key's hash, so
// membership is stable: marking one replica dead only reassigns the keys
// it owned, which is what keeps per-replica artifact caches hot across
// unrelated failures.
//
// The member set is fixed at construction; only liveness changes at run
// time (SetAlive). All methods are safe for concurrent use.
type Ring struct {
	mu     sync.RWMutex
	nodes  []string // all members, as given (deduplicated)
	alive  map[string]bool
	points []ringPoint // virtual nodes of live members, sorted by hash
	vnodes int
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing builds a ring over nodes with the given virtual-node count per
// member (<= 0 selects DefaultVirtualNodes). Every member starts alive.
// Duplicate node names collapse to one member.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	r := &Ring{alive: make(map[string]bool), vnodes: vnodes}
	for _, n := range nodes {
		if _, ok := r.alive[n]; ok {
			continue
		}
		r.alive[n] = true
		r.nodes = append(r.nodes, n)
	}
	r.rebuild()
	return r
}

// rebuild recomputes the sorted point list from the live member set.
// Callers hold mu.
func (r *Ring) rebuild() {
	r.points = r.points[:0]
	for _, n := range r.nodes {
		if !r.alive[n] {
			continue
		}
		for i := 0; i < r.vnodes; i++ {
			r.points = append(r.points, ringPoint{hashKey(fmt.Sprintf("%s#%d", n, i)), n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// hashKey maps a string onto the ring. SHA-256 rather than a fast
// non-cryptographic hash: keys are artifact fingerprints chosen by
// clients, and a keyed collision must not let one program shadow
// another's placement.
func hashKey(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// Owner returns the live member owning key, or "" when every member is
// marked dead.
func (r *Ring) Owner(key string) string {
	owners := r.Owners(key, 1)
	if len(owners) == 0 {
		return ""
	}
	return owners[0]
}

// Owners returns up to n distinct live members in ownership order: the
// owner first, then the failover successors clockwise. The slice is the
// retry order a router should use when the owner is unreachable.
func (r *Ring) Owners(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := hashKey(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[string]bool, n)
	out := make([]string, 0, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.node] {
			seen[p.node] = true
			out = append(out, p.node)
		}
	}
	return out
}

// SetAlive marks a member's liveness, rebuilding the point list when the
// state changes. Unknown members are ignored (the member set is fixed).
// It reports whether the liveness state changed.
func (r *Ring) SetAlive(node string, alive bool) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.alive[node]
	if !ok || cur == alive {
		return false
	}
	r.alive[node] = alive
	r.rebuild()
	return true
}

// Nodes returns all members in construction order.
func (r *Ring) Nodes() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, len(r.nodes))
	copy(out, r.nodes)
	return out
}

// Alive reports whether node is currently marked live.
func (r *Ring) Alive(node string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.alive[node]
}

// LiveCount returns the number of live members.
func (r *Ring) LiveCount() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, ok := range r.alive {
		if ok {
			n++
		}
	}
	return n
}

// Contains reports whether node is a member of the ring.
func (r *Ring) Contains(node string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.alive[node]
	return ok
}
