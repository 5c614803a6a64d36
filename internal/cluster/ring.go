// Package cluster turns chatvisd into an N-node fleet: a consistent-hash
// shard ring (virtual nodes, rendezvous tiebreak) over a static
// membership list with health-probe-driven liveness, a durable
// write-ahead job/turn log so accepted work survives a node crash, and
// per-tenant front-door quotas (token bucket + max-inflight).
//
// The package is deliberately free of any dependency on the serving
// layer: internal/service composes these pieces (forwarding proxy,
// WAL-backed queue, cross-node coalescing) on top.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// point is one virtual node's position on the ring.
type point struct {
	h    uint64
	node string
}

// Ring is an immutable consistent-hash ring over a static node set.
// Each node contributes vnodes virtual points so ownership spreads
// evenly; a key's owner is the first point clockwise from the key's
// hash. Nodes whose points collide on the same position are ordered by
// rendezvous hash of (node, key), so ties break deterministically and
// per-key rather than by node name.
type Ring struct {
	points []point
	nodes  []string
}

// DefaultVirtualNodes is the per-node vnode count when NewRing is given
// zero or a negative value.
const DefaultVirtualNodes = 64

// hash64 is the ring's position hash (FNV-1a, 64-bit).
func hash64(s string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(s))
	return h.Sum64()
}

// rendezvous scores a (node, key) pair for collision tiebreaks.
func rendezvous(node, key string) uint64 {
	return hash64(node + "\x00" + key)
}

// NewRing builds a ring over the node IDs. Duplicate IDs collapse to
// one membership; the input order does not matter.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes < 1 {
		vnodes = DefaultVirtualNodes
	}
	uniq := make([]string, 0, len(nodes))
	seen := map[string]bool{}
	for _, n := range nodes {
		if n == "" || seen[n] {
			continue
		}
		seen[n] = true
		uniq = append(uniq, n)
	}
	sort.Strings(uniq)
	r := &Ring{nodes: uniq}
	for _, n := range uniq {
		for i := 0; i < vnodes; i++ {
			r.points = append(r.points, point{h: hash64(fmt.Sprintf("%s#%d", n, i)), node: n})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].h != r.points[j].h {
			return r.points[i].h < r.points[j].h
		}
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Owners returns up to n distinct nodes in preference order for key:
// the clockwise walk from the key's ring position, with same-position
// collisions ordered by rendezvous score. The first entry is the key's
// owner; later entries are the successive failover owners a caller
// should try as nodes die.
func (r *Ring) Owners(key string, n int) []string {
	if len(r.points) == 0 || n < 1 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	kh := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].h >= kh })

	out := make([]string, 0, n)
	taken := map[string]bool{}
	add := func(node string) {
		if !taken[node] {
			taken[node] = true
			out = append(out, node)
		}
	}
	for i := 0; i < len(r.points) && len(out) < n; {
		p := r.points[(start+i)%len(r.points)]
		// Gather the run of points sharing this position (hash
		// collisions between vnodes of different nodes) and order the
		// run by rendezvous score so the tiebreak is keyed, not
		// alphabetical.
		run := []string{p.node}
		j := i + 1
		for j < len(r.points) && r.points[(start+j)%len(r.points)].h == p.h {
			run = append(run, r.points[(start+j)%len(r.points)].node)
			j++
		}
		if len(run) > 1 {
			sort.Slice(run, func(a, b int) bool {
				return rendezvous(run[a], key) > rendezvous(run[b], key)
			})
		}
		for _, node := range run {
			if len(out) < n {
				add(node)
			}
		}
		i = j
	}
	return out
}

// Owner returns the first node in the key's preference order that the
// alive predicate accepts (nil accepts everything). ok is false when
// the ring is empty or every member is down.
func (r *Ring) Owner(key string, alive func(string) bool) (string, bool) {
	for _, node := range r.Owners(key, len(r.nodes)) {
		if alive == nil || alive(node) {
			return node, true
		}
	}
	return "", false
}
