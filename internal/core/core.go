// Package core implements the P-Net end-host control plane — the paper's
// primary contribution. In a Parallel Dataplane Network the end host, not
// the fabric, decides which dataplane(s) and path(s) every flow uses
// (§3.4). This package exposes that decision surface:
//
//   - the "low-latency" proxy interface: a single shortest path, which in
//     a heterogeneous P-Net automatically lands on the plane with the
//     fewest hops to the destination;
//   - the "high-throughput" proxy interface: K shortest paths interleaved
//     across planes (route.AcrossPlanes, the one implementation of that
//     rule), for MPTCP multipathing with K scaled to the number of planes
//     (§4's N×8 rule);
//   - per-flow ECMP hashing over planes and equal-cost paths, the naive
//     baseline the paper shows to under-use parallel capacity;
//   - traffic classes pinned to a subset of planes (§7): the same
//     selectors, handed only the class's plane masks;
//   - link-status-driven failure handling: hosts detect a failed plane
//     and exclude it, degrading gracefully (§3.4, §5.4).
package core

import (
	"fmt"
	"math/bits"
	"slices"

	"pnet/internal/graph"
	"pnet/internal/route"
	"pnet/internal/topo"
)

// PNet is the end-host view of a parallel dataplane network. It caches
// routing state (ECMP DAGs, K-shortest-path sets) and invalidates the
// caches when a plane is marked down or up. It is not safe for concurrent
// use.
type PNet struct {
	Topo *topo.Topology

	// dags[dst] is the ECMP next-hop DAG toward dst, nil until first use.
	dags []*graph.DAG
	// routes interns ECMP routes walked on dags: one shared link slice
	// per route, under its routeKey. A key is only meaningful on the DAG
	// it was walked on, so resetCaches clears the two together.
	routes   map[uint64][]graph.LinkID
	walk     []graph.LinkID // ECMPPath's walk buffer
	kspCache map[kspKey][]graph.Path

	// Traffic classes (see isolation.go).
	classes    map[string][]int
	classMasks map[string][]bool
}

type kspKey struct {
	src, dst graph.NodeID
	k        int
}

// routeKey names an ECMP route exactly, by its endpoints and its choice
// code on dags[dst] (graph.ECMPWalk) as the digits of one number: src +
// n·dst + n²·code for n nodes. ok is false when that overflows 64 bits.
func (p *PNet) routeKey(src, dst graph.NodeID, code uint64) (key uint64, ok bool) {
	n := uint64(len(p.dags))
	hi, lo := bits.Mul64(code, n*n)
	key, carry := bits.Add64(lo, uint64(src)+n*uint64(dst), 0)
	return key, hi == 0 && carry == 0
}

// New wraps a topology in the end-host control plane.
func New(t *topo.Topology) *PNet {
	p := &PNet{Topo: t}
	p.resetCaches()
	return p
}

func (p *PNet) resetCaches() {
	p.dags = make([]*graph.DAG, p.Topo.G.NumNodes())
	p.routes = make(map[uint64][]graph.LinkID)
	p.kspCache = make(map[kspKey][]graph.Path)
}

// Planes returns the number of dataplanes.
func (p *PNet) Planes() int { return p.Topo.Planes }

// LowLatencyPath is the single-shortest-path interface: the fewest-hop
// path to dst across all usable planes. In a heterogeneous P-Net this
// exploits the plane with the shortest route for this particular pair —
// the mechanism behind the paper's RPC latency wins (§5.2.1).
func (p *PNet) LowLatencyPath(src, dst graph.NodeID) (graph.Path, bool) {
	return graph.ShortestPath(p.Topo.G, src, dst)
}

// HighThroughputPaths is the multipath interface: up to k shortest paths
// interleaved across planes, suitable for one MPTCP subflow each. Results
// are cached per (src, dst, k).
func (p *PNet) HighThroughputPaths(src, dst graph.NodeID, k int) []graph.Path {
	key := kspKey{src, dst, k}
	if ps, ok := p.kspCache[key]; ok {
		return ps
	}
	ps := route.KSPPaths(p.Topo.G, []route.Commodity{{Src: src, Dst: dst, Demand: 1}}, k)[0]
	p.kspCache[key] = ps
	return ps
}

// ECMPPath returns the hash-pinned single path a naive ECMP deployment
// would give the flow: every hop (including the host's choice among plane
// uplinks) hashes among equal-cost shortest next hops.
//
// Routes are interned: every flow pinned to the same route gets the same
// Links, shared with every other holder and never written, so callers must
// only read them. Finding the route allocates nothing once it has been
// seen; marking a plane down or up starts a fresh table.
func (p *PNet) ECMPPath(src, dst graph.NodeID, flowHash uint64) (graph.Path, bool) {
	dag := p.dags[dst]
	if dag == nil {
		dag = graph.ShortestDAG(p.Topo.G, dst)
		p.dags[dst] = dag
	}
	links, code, exact, ok := graph.ECMPWalk(dag, src, flowHash, p.walk[:0])
	p.walk = links
	if !ok {
		return graph.Path{}, false
	}
	key, fits := p.routeKey(src, dst, code)
	if !exact || !fits {
		return graph.Path{Links: slices.Clone(links)}, true
	}
	route, seen := p.routes[key]
	if !seen {
		route = slices.Clone(links)
		p.routes[key] = route
	}
	return graph.Path{Links: route}, true
}

// SubflowsFor implements the paper's guidance on multipath degree: a
// serial network saturates at 8 subflows, and an N-plane P-Net needs N
// times as many (§4, Figures 6c and 8c).
func SubflowsFor(planes int) int { return 8 * planes }

// MarkPlaneDown excludes a whole dataplane from selection (e.g. during a
// one-plane-at-a-time upgrade, §6.1); host uplinks to it are downed so
// path computation avoids it too.
func (p *PNet) MarkPlaneDown(plane int) {
	p.setPlane(plane, false)
}

// MarkPlaneUp returns a dataplane to service.
func (p *PNet) MarkPlaneUp(plane int) {
	p.setPlane(plane, true)
}

func (p *PNet) setPlane(plane int, up bool) {
	if plane < 0 || plane >= p.Topo.Planes {
		panic(fmt.Sprintf("core: plane %d of %d", plane, p.Topo.Planes))
	}
	for h := range p.Topo.Uplinks {
		p.Topo.G.SetLinkUp(p.Topo.Uplinks[h][plane], up)
		p.Topo.G.SetLinkUp(p.Topo.Downlinks[h][plane], up)
	}
	p.resetCaches()
}
