// Package core implements the P-Net end-host control plane — the paper's
// primary contribution. In a Parallel Dataplane Network the end host, not
// the fabric, decides which dataplane(s) and path(s) every flow uses
// (§3.4). This package exposes that decision surface, a Selector over a
// set of planes:
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
//     Selector, handed only the class's plane masks;
//   - link-status-driven failure handling: hosts detect a failed plane
//     and exclude it, degrading gracefully (§3.4, §5.4).
package core

import (
	"fmt"
	"slices"

	"pnet/internal/graph"
	"pnet/internal/route"
	"pnet/internal/topo"
)

// PNet is the end-host view of a parallel dataplane network: the Selector
// over every plane, embedded so that its policies are PNet's own, and one
// Selector per traffic class. Marking a plane down resets every
// selector's caches. It is not safe for concurrent use.
type PNet struct {
	*Selector
	Topo    *topo.Topology
	classes map[string]*Selector
}

// Selector picks paths confined to one set of planes. It caches routing
// state (ECMP DAGs, K-shortest-path sets), which the PNet that made it
// resets when a plane is marked down.
type Selector struct {
	g *graph.Graph
	// masks holds the set's per-plane banned-link masks, as
	// graph.PlaneMasks returns them; banned is the whole set's mask, the
	// links every one of them bans, and nil when the set is every plane.
	masks  [][]bool
	banned []bool

	// dags[dst] is the ECMP next-hop DAG toward dst, nil until first use.
	dags     []*graph.DAG
	walk     []graph.LinkID // ECMPPath's walk buffer, which it returns
	kspCache map[kspKey][]graph.Path
}

type kspKey struct {
	src, dst graph.NodeID
	k        int
}

// New wraps a topology in the end-host control plane.
func New(t *topo.Topology) *PNet {
	return &PNet{Selector: newSelector(t.G, t.G.PlaneMasks(), nil), Topo: t, classes: map[string]*Selector{}}
}

func newSelector(g *graph.Graph, masks [][]bool, banned []bool) *Selector {
	s := &Selector{g: g, masks: masks, banned: banned}
	s.resetCaches()
	return s
}

func (s *Selector) resetCaches() {
	s.dags = make([]*graph.DAG, s.g.NumNodes())
	s.kspCache = make(map[kspKey][]graph.Path)
}

// Planes returns the number of dataplanes the selector routes over.
func (s *Selector) Planes() int { return len(s.masks) }

// LowLatencyPath is the single-shortest-path interface: the fewest-hop
// path to dst across the selector's usable planes. In a heterogeneous
// P-Net this exploits the plane with the shortest route for this
// particular pair — the mechanism behind the paper's RPC latency wins
// (§5.2.1).
func (s *Selector) LowLatencyPath(src, dst graph.NodeID) (graph.Path, bool) {
	ps := graph.KShortestPathsMasked(s.g, src, dst, 1, s.banned)
	if len(ps) == 0 {
		return graph.Path{}, false
	}
	return ps[0], true
}

// HighThroughputPaths is the multipath interface: up to k shortest paths
// interleaved across the selector's planes, suitable for one MPTCP
// subflow each. Results are cached per (src, dst, k).
func (s *Selector) HighThroughputPaths(src, dst graph.NodeID, k int) []graph.Path {
	key := kspKey{src, dst, k}
	if ps, ok := s.kspCache[key]; ok {
		return ps
	}
	ps := route.AcrossPlanes(s.g, s.masks, []route.Commodity{{Src: src, Dst: dst, Demand: 1}}, k, nil)[0]
	s.kspCache[key] = ps
	return ps
}

// ECMPPath returns the hash-pinned single path a naive ECMP deployment
// would give the flow: every hop (including the host's choice among plane
// uplinks) hashes among the equal-cost shortest next hops the selector's
// planes offer.
//
// The route is walked into the selector's one buffer, so its Links are
// valid only until the selector's next ECMPPath: a caller that keeps the
// route copies it (tcp.NewFlow does, into the flow's own block). Once the
// DAG toward dst is built, finding a route allocates nothing.
func (s *Selector) ECMPPath(src, dst graph.NodeID, flowHash uint64) (graph.Path, bool) {
	dag := s.dags[dst]
	if dag == nil {
		dag = graph.ShortestDAG(s.g, dst, s.banned)
		s.dags[dst] = dag
	}
	links, ok := graph.ECMPWalk(dag, src, flowHash, s.walk[:0])
	s.walk = links
	if !ok {
		return graph.Path{}, false
	}
	return graph.Path{Links: links}, true
}

// SetClass pins a named traffic class — a tenant, or a service tier like
// "user-facing frontend" vs "background analytics" — to a non-empty
// subset of planes (§7, "Performance isolation"): the dataplanes share
// nothing but the hosts, so the paths the class's Selector picks get
// strict bandwidth isolation without any in-network scheduler. Setting a
// name again replaces its planes; classes may overlap.
func (p *PNet) SetClass(name string, planes []int) error {
	if len(planes) == 0 {
		return fmt.Errorf("core: class %q names no plane", name)
	}
	every := p.Topo.G.PlaneMasks()
	planes = slices.Clone(planes)
	slices.Sort(planes)
	planes = slices.Compact(planes)
	masks := make([][]bool, len(planes))
	for i, pl := range planes {
		if pl < 0 || pl >= len(every) {
			return fmt.Errorf("core: class %q references plane %d of %d", name, pl, len(every))
		}
		masks[i] = every[pl]
	}
	var banned []bool
	if len(masks) < len(every) {
		banned = slices.Clone(masks[0])
		for _, m := range masks[1:] {
			for l, b := range m {
				banned[l] = banned[l] && b
			}
		}
	}
	p.classes[name] = newSelector(p.Topo.G, masks, banned)
	return nil
}

// Class returns the Selector confined to a class's planes, or nil if the
// class is undefined.
func (p *PNet) Class(name string) *Selector { return p.classes[name] }

// SubflowsFor implements the paper's guidance on multipath degree: a
// serial network saturates at 8 subflows, and an N-plane P-Net needs N
// times as many (§4, Figures 6c and 8c).
func SubflowsFor(planes int) int { return 8 * planes }

// MarkPlaneDown excludes a whole dataplane from selection (e.g. during a
// one-plane-at-a-time upgrade, §6.1); host uplinks to it are downed so
// path computation avoids it too. A downed plane stays down.
func (p *PNet) MarkPlaneDown(plane int) {
	if plane < 0 || plane >= p.Topo.Planes {
		panic(fmt.Sprintf("core: plane %d of %d", plane, p.Topo.Planes))
	}
	for h := range p.Topo.Uplinks {
		p.Topo.G.SetLinkUp(p.Topo.Uplinks[h][plane], false)
		p.Topo.G.SetLinkUp(p.Topo.Downlinks[h][plane], false)
	}
	p.Selector.resetCaches()
	for _, c := range p.classes {
		c.resetCaches()
	}
}
