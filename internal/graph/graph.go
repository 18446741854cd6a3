// Package graph provides the directed multigraph and path algorithms that
// underlie every topology in this repository.
//
// A Graph is a static set of nodes connected by directed links. Links carry
// a capacity (in Gb/s) and an administrative up/down state so that the
// failure-analysis experiments can knock links out without rebuilding the
// topology. Nodes carry a Transit flag: end hosts are non-transit, which
// prevents any path-finding algorithm from relaying traffic through a host —
// the defining forwarding constraint of a Parallel Dataplane Network, where
// a packet that has entered one plane may not hop through a host into
// another plane.
//
// All algorithms in this package treat the graph as unweighted (hop count
// metric), matching the shortest-path and K-shortest-path routing used in
// the paper's evaluation.
package graph

import (
	"fmt"
	"sync"
)

// NodeID identifies a node within a Graph.
type NodeID int32

// LinkID identifies a directed link within a Graph.
type LinkID int32

// Link is a directed, capacitated edge.
type Link struct {
	ID       LinkID
	Src, Dst NodeID
	// Capacity is the link speed in Gb/s.
	Capacity float64
	// Plane tags which dataplane the link belongs to. Host uplinks carry
	// the plane they attach to; links of single-plane (serial) networks
	// use plane 0. A value of -1 means "not plane-specific".
	Plane int32
	// Up reports the administrative state. Down links are invisible to
	// all path algorithms.
	Up bool
}

// Graph is a directed multigraph. The zero value is unusable; create one
// with New.
type Graph struct {
	transit []bool
	links   []Link
	out     [][]LinkID
	in      [][]LinkID

	// version counts mutations (node/link growth, up/capacity/transit
	// changes). Derived snapshots cache against it; a stale version
	// triggers a rebuild on next access. Mutators run single-threaded by
	// contract — only read-only access may be concurrent.
	version uint64

	// Plane-mask cache (see PlaneMasks). Guarded by masksMu so that
	// concurrent path computations against one shared read-only graph —
	// the parallel-sweep execution model — build the masks exactly once.
	masksMu    sync.Mutex
	masks      [][]bool
	masksValid bool
	masksLinks int // NumLinks when masks was computed; invalidates on growth

	// Frozen CSR snapshot cache (see Frozen), keyed by version.
	frozenMu      sync.Mutex
	frozen        *Frozen
	frozenVersion uint64

	// Reverse-twin cache (see ReverseLink), invalidated on link growth
	// like the plane masks — up/capacity changes never affect twins.
	twinMu    sync.Mutex
	twin      []LinkID
	twinLinks int
}

// New returns an empty graph with n nodes, all transit-capable.
func New(n int) *Graph {
	return &Graph{
		transit: newBools(n, true),
		out:     make([][]LinkID, n),
		in:      make([][]LinkID, n),
	}
}

func newBools(n int, v bool) []bool {
	b := make([]bool, n)
	for i := range b {
		b[i] = v
	}
	return b
}

// AddNode appends a node and returns its ID.
func (g *Graph) AddNode(transit bool) NodeID {
	g.version++
	g.transit = append(g.transit, transit)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return NodeID(len(g.transit) - 1)
}

// AddLink adds a directed link from src to dst and returns its ID.
// The link starts in the up state.
func (g *Graph) AddLink(src, dst NodeID, capacity float64, plane int32) LinkID {
	if src == dst {
		panic(fmt.Sprintf("graph: self-loop at node %d", src))
	}
	g.version++
	id := LinkID(len(g.links))
	g.links = append(g.links, Link{
		ID: id, Src: src, Dst: dst, Capacity: capacity, Plane: plane, Up: true,
	})
	g.out[src] = append(g.out[src], id)
	g.in[dst] = append(g.in[dst], id)
	return id
}

// AddDuplex adds a pair of directed links between a and b (one in each
// direction) and returns their IDs.
func (g *Graph) AddDuplex(a, b NodeID, capacity float64, plane int32) (ab, ba LinkID) {
	return g.AddLink(a, b, capacity, plane), g.AddLink(b, a, capacity, plane)
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return len(g.transit) }

// NumLinks returns the number of directed links, including down links.
func (g *Graph) NumLinks() int { return len(g.links) }

// checkLink validates a link ID before indexing, so a bad ID (typically
// from a hand-written chaos schedule) fails with a message naming the
// culprit instead of a bare slice-bounds panic.
func (g *Graph) checkLink(id LinkID) {
	if id < 0 || int(id) >= len(g.links) {
		panic(fmt.Sprintf("graph: link %d out of range [0,%d)", id, len(g.links)))
	}
}

// Link returns the link with the given ID.
func (g *Graph) Link(id LinkID) Link {
	g.checkLink(id)
	return g.links[id]
}

// OutLinks returns the IDs of links leaving node n, including down links.
func (g *Graph) OutLinks(n NodeID) []LinkID { return g.out[n] }

// InLinks returns the IDs of links entering node n, including down links.
func (g *Graph) InLinks(n NodeID) []LinkID { return g.in[n] }

// Transit reports whether node n may forward traffic (false for end hosts).
func (g *Graph) Transit(n NodeID) bool { return g.transit[n] }

// SetTransit sets the transit capability of node n.
func (g *Graph) SetTransit(n NodeID, transit bool) {
	g.version++
	g.transit[n] = transit
}

// SetLinkUp sets the administrative state of a link.
func (g *Graph) SetLinkUp(id LinkID, up bool) {
	g.checkLink(id)
	g.version++
	g.links[id].Up = up
}

// SetCapacity overwrites the capacity of a link. Used to derive "serial
// high-bandwidth" networks from their low-bandwidth twins.
func (g *Graph) SetCapacity(id LinkID, capacity float64) {
	g.checkLink(id)
	g.version++
	g.links[id].Capacity = capacity
}

// Clone returns a deep copy of the graph. Failure experiments clone a
// topology before tearing links down.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		transit: append([]bool(nil), g.transit...),
		links:   append([]Link(nil), g.links...),
		out:     make([][]LinkID, len(g.out)),
		in:      make([][]LinkID, len(g.in)),
	}
	for i := range g.out {
		c.out[i] = append([]LinkID(nil), g.out[i]...)
	}
	for i := range g.in {
		c.in[i] = append([]LinkID(nil), g.in[i]...)
	}
	return c
}

// PlaneMasks returns, in increasing plane order, the banned-link masks
// that confine a path search to each dataplane: mask[p][l] is true when
// link l belongs to a different plane than p (untagged plane -1 links are
// allowed everywhere). The result is nil when no link carries a plane tag.
//
// The masks are computed once per graph and cached; the cache is
// invalidated when links are added, and the returned slices are shared —
// callers must treat them as read-only. Safe for concurrent use as long
// as the topology itself is not mutated concurrently, which is the
// contract for all parallel path computation.
func (g *Graph) PlaneMasks() [][]bool {
	g.masksMu.Lock()
	defer g.masksMu.Unlock()
	if g.masksValid && g.masksLinks == len(g.links) {
		return g.masks
	}
	g.masksValid = true
	g.masksLinks = len(g.links)
	g.masks = nil
	maxPlane := int32(-1)
	for i := range g.links {
		if p := g.links[i].Plane; p > maxPlane {
			maxPlane = p
		}
	}
	if maxPlane < 0 {
		return nil
	}
	masks := make([][]bool, maxPlane+1)
	for p := int32(0); p <= maxPlane; p++ {
		mask := make([]bool, len(g.links))
		for i := range g.links {
			if q := g.links[i].Plane; q >= 0 && q != p {
				mask[i] = true
			}
		}
		masks[p] = mask
	}
	g.masks = masks
	return masks
}

// ReverseLink returns the link running opposite to id (same endpoints and
// plane, reversed direction). ok is false if none exists. Topologies built
// with AddDuplex always have one. The twin table is precomputed: the first
// call builds it in one O(links) pass and later calls are a lock plus an
// array load; ReversePath, which transports call for every ACK route,
// takes the lock once per path. The cache is invalidated when links are
// added (twins depend only on endpoints and plane tags, which never change
// after AddLink) and is safe to build and read concurrently, like
// PlaneMasks.
func (g *Graph) ReverseLink(id LinkID) (LinkID, bool) {
	g.checkLink(id)
	rid := g.twins()[id]
	return rid, rid >= 0
}

// twins returns the cached reverse-twin table, building it if stale.
// twin[l] is the lowest-numbered link with reversed endpoints and the
// same plane as l, or -1 — "lowest-numbered" matches the historical
// linear scan, which walked the out-links of l's destination in link
// insertion order. A built table is never written again, so the returned
// slice may be read after the lock is released.
func (g *Graph) twins() []LinkID {
	g.twinMu.Lock()
	defer g.twinMu.Unlock()
	if g.twin != nil && g.twinLinks == len(g.links) {
		return g.twin
	}
	type key struct {
		src, dst NodeID
		plane    int32
	}
	first := make(map[key]LinkID, len(g.links))
	for i := range g.links {
		l := &g.links[i]
		k := key{l.Src, l.Dst, l.Plane}
		if _, ok := first[k]; !ok {
			first[k] = LinkID(i)
		}
	}
	twin := make([]LinkID, len(g.links))
	for i := range g.links {
		l := &g.links[i]
		if rid, ok := first[key{l.Dst, l.Src, l.Plane}]; ok {
			twin[i] = rid
		} else {
			twin[i] = -1
		}
	}
	g.twin = twin
	g.twinLinks = len(g.links)
	return twin
}

// ReversePath returns the hop-by-hop reverse of p. ok is false if any link
// lacks a reverse twin.
func ReversePath(g *Graph, p Path) (Path, bool) {
	twin := g.twins()
	links := make([]LinkID, len(p.Links))
	for i, id := range p.Links {
		g.checkLink(id)
		rid := twin[id]
		if rid < 0 {
			return Path{}, false
		}
		links[len(p.Links)-1-i] = rid
	}
	return Path{Links: links}, true
}
