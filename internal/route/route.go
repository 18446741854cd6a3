// Package route computes the path selections studied in the paper:
// per-flow ECMP (ECMPPaths: a single hash-pinned shortest path, possibly
// choosing a dataplane at the host) and K shortest paths across
// dataplanes (AcrossPlanes: the bounded multipath sets fed to MPTCP).
// AcrossPlanes is the only implementation of the cross-plane rule: called
// with graph.PlaneMasks it routes over every plane, KSPPathsSeeded adds
// per-commodity tie seeds, and core's Selector and the fig8a/8b
// experiments pass their own masks and seeds. Both selectors operate on a
// Topology's combined multi-plane graph, where plane disjointness
// guarantees every path stays within one plane.
package route

import (
	"cmp"
	"math/rand"
	"slices"
	"sync"

	"pnet/internal/graph"
	"pnet/internal/par"
)

// Commodity is a traffic demand between two nodes.
type Commodity struct {
	Src, Dst graph.NodeID
	// Demand is in the same units as link capacity (Gb/s). The
	// max-concurrent-flow experiments use equal demands of 1 host
	// bandwidth unit.
	Demand float64
}

// ECMPPaths pins each commodity to a single path: at every hop the
// shortest-path DAG's equal-cost next hops are hashed on the flow identity,
// exactly as a switch ECMP pipeline (and, at the host, the hash across the
// dataplane uplinks) would do. Commodity i uses flow hash seed+i. The
// returned slice has one single-element path list per commodity; pairs
// with no path get an empty list.
func ECMPPaths(g *graph.Graph, cs []Commodity, seed uint64) [][]graph.Path {
	// Per-destination DAG builds are the expensive part and independent of
	// each other: fan them out, then walk commodities against the shared
	// read-only DAG map. Results are indexed by commodity, so worker count
	// never changes the output.
	var dsts []graph.NodeID
	seen := map[graph.NodeID]int{}
	for _, c := range cs {
		if _, ok := seen[c.Dst]; !ok {
			seen[c.Dst] = len(dsts)
			dsts = append(dsts, c.Dst)
		}
	}
	dags := par.Map(len(dsts), func(i int) *graph.DAG {
		return graph.ShortestDAG(g, dsts[i], nil)
	})
	out := make([][]graph.Path, len(cs))
	par.Do(len(cs), func(i int) {
		c := cs[i]
		dag := dags[seen[c.Dst]]
		if p, ok := graph.ECMPPath(dag, c.Src, seed+uint64(i)*0x9e3779b97f4a7c15); ok {
			out[i] = []graph.Path{p}
		}
	})
	return out
}

// KSPPathsSeeded computes up to k shortest paths per commodity across all
// dataplanes with per-commodity randomized tie-breaking (see
// AcrossPlanes). Commodity i derives its randomness from seed+i, so runs
// are reproducible.
func KSPPathsSeeded(g *graph.Graph, cs []Commodity, k int, seed int64) [][]graph.Path {
	return AcrossPlanes(g, g.PlaneMasks(), cs, k, func(i int) int64 { return seed + int64(i)*0x9e3779b9 })
}

// AcrossPlanes is the K-shortest-paths selector every multipath figure
// rests on (§3.4): per commodity, up to k shortest paths over the planes
// the masks name (one banned-link mask per plane, as graph.PlaneMasks
// returns them; no masks means one search over the whole graph), merged
// in increasing length with equal-length paths interleaved round-robin
// across planes. Interleaving matters for homogeneous P-Nets: all planes
// offer identical path lengths, and a K-subflow MPTCP connection should
// spread its subflows over planes rather than exhaust one plane's path
// diversity first.
//
// tie, when non-nil, gives commodity i the seed of an RNG that shuffles
// each group of equal-length candidates before the interleave: Yen's
// deterministic order makes every flow between nearby endpoints prefer
// the same low-numbered switches, and production multipath routing (and
// the paper's simulator) decorrelates flows by hashing.
//
// Within a plane a host's first and last hop are forced, so Yen's
// algorithm runs between the first and last node with a choice, once per
// unique (first, last, plane) across the whole commodity list, and the
// forced links are spliced back on. This is exactly the host-to-host
// search: the two spur nodes it skips can only fail (DESIGN.md §8).
func AcrossPlanes(g *graph.Graph, masks [][]bool, cs []Commodity, k int, tie func(i int) int64) [][]graph.Path {
	out := make([][]graph.Path, len(cs))
	if k <= 0 {
		return out
	}
	if len(masks) == 0 {
		masks = [][]bool{nil}
	}
	perPlane := k
	if tie != nil {
		// Overshoot so that equal-length tie groups are (mostly) fully
		// enumerated before sampling from them.
		perPlane = k + 8
	}

	type search struct {
		first, last graph.NodeID
		plane       int
	}
	fz := g.Frozen()
	var uniq []search
	idx := map[search]int{}
	legs := make([][]leg, len(cs))
	for i, c := range cs {
		if c.Src == c.Dst {
			continue // the forced hops alone would make host-ToR-host
		}
		for plane, mask := range masks {
			first, up, ok := forcedHop(fz, c.Src, fz.OutLinks(c.Src), fz.LinkDst, mask)
			if !ok {
				continue
			}
			last, down, ok := forcedHop(fz, c.Dst, fz.InLinks(c.Dst), fz.LinkSrc, mask)
			if !ok {
				continue
			}
			s := search{first, last, plane}
			if _, seen := idx[s]; !seen {
				idx[s] = len(uniq)
				uniq = append(uniq, s)
			}
			legs[i] = append(legs[i], leg{idx[s], up, down})
		}
	}

	found := par.Map(len(uniq), func(i int) []graph.Path {
		s := uniq[i]
		if s.first == s.last {
			return []graph.Path{{}} // the forced links are the whole path
		}
		return graph.KShortestPathsMasked(g, s.first, s.last, perPlane, masks[s.plane])
	})

	par.Do(len(cs), func(i int) {
		m := mergers.Get().(*merger)
		var rng *rand.Rand
		if tie != nil {
			m.rng.Seed(tie(i))
			rng = m.rng
		}
		out[i] = m.merge(g, legs[i], found, k, rng)
		mergers.Put(m)
	})
	return out
}

// leg is one commodity's share of one plane: a search result with the
// commodity's own forced links (-1 for none) around it.
type leg struct {
	search   int
	up, down graph.LinkID
}

// extra is how many forced links the leg adds to each of its paths.
func (lg leg) extra() int {
	n := 0
	if lg.up >= 0 {
		n++
	}
	if lg.down >= 0 {
		n++
	}
	return n
}

// merger is one worker's scratch for merging a commodity's legs; the
// pool hands each worker its own, rng included.
type merger struct {
	rng   *rand.Rand
	next  []int  // per leg, its first path not yet merged
	picks []pick // merged so far, in output order
	seen  []pick // per plane in the current group, its latest round
}

// pick is one merged path: position mid in leg's search result. round
// and plane are the interleave's sort key.
type pick struct {
	leg, mid     int32
	round, plane int32
}

var mergers = sync.Pool{New: func() any { return &merger{rng: rand.New(rand.NewSource(0))} }}

// merge returns up to k of a commodity's paths in increasing length.
// Every leg's search result is sorted by length and its forced links
// lengthen all its paths alike, so taking the least length left across
// the legs, earlier leg first on ties, is a stable sort of their
// concatenation. Each group of equal-length paths is shuffled by rng
// (when non-nil) and then interleaved round-robin across planes in
// ascending plane order. The groups are walked in increasing length and
// the walk stops after the group that brings the list to k: a later
// group's shuffle draws random numbers no earlier group sees, so
// stopping changes nothing. Only the returned paths are spliced, into
// one backing array.
func (m *merger) merge(g *graph.Graph, legs []leg, found [][]graph.Path, k int, rng *rand.Rand) []graph.Path {
	m.next = slices.Grow(m.next[:0], len(legs))[:len(legs)]
	clear(m.next)
	m.picks = m.picks[:0]
	for len(m.picks) < k {
		n := -1
		for l, lg := range legs {
			if ps := found[lg.search]; m.next[l] < len(ps) {
				if d := ps[m.next[l]].Len() + lg.extra(); n < 0 || d < n {
					n = d
				}
			}
		}
		if n < 0 {
			break
		}
		lo := len(m.picks)
		for l, lg := range legs {
			ps, e := found[lg.search], lg.extra()
			for ; m.next[l] < len(ps) && ps[m.next[l]].Len()+e == n; m.next[l]++ {
				m.picks = append(m.picks, pick{leg: int32(l), mid: int32(m.next[l]), plane: lg.plane(g, ps[m.next[l]])})
			}
		}
		group := m.picks[lo:]
		if rng != nil {
			rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
		}
		m.interleave(group)
	}
	picks := m.picks[:min(k, len(m.picks))]
	total := 0
	for _, pk := range picks {
		total += found[legs[pk.leg].search][pk.mid].Len() + legs[pk.leg].extra()
	}
	links := make([]graph.LinkID, 0, total)
	out := make([]graph.Path, len(picks))
	for i, pk := range picks {
		lg := legs[pk.leg]
		lo := len(links)
		if lg.up >= 0 {
			links = append(links, lg.up)
		}
		links = append(links, found[lg.search][pk.mid].Links...)
		if lg.down >= 0 {
			links = append(links, lg.down)
		}
		out[i] = graph.Path{Links: links[lo:len(links):len(links)]}
	}
	return out
}

// plane is the plane of mid spliced into the leg: its first link's.
func (lg leg) plane(g *graph.Graph, mid graph.Path) int32 {
	switch {
	case lg.up >= 0:
		return g.Link(lg.up).Plane
	case mid.Len() > 0:
		return g.Link(mid.Links[0]).Plane
	case lg.down >= 0:
		return g.Link(lg.down).Plane
	}
	return -1
}

// interleave reorders a group of equal-length paths so that planes take
// turns in ascending order, each plane's paths keeping their order: the
// i-th path of a plane goes in round i, and a round is sorted by plane.
func (m *merger) interleave(group []pick) {
	if len(group) <= 1 {
		return
	}
	m.seen = m.seen[:0]
	for i := range group {
		j := slices.IndexFunc(m.seen, func(s pick) bool { return s.plane == group[i].plane })
		if j < 0 {
			j = len(m.seen)
			m.seen = append(m.seen, pick{plane: group[i].plane, round: -1})
		}
		m.seen[j].round++
		group[i].round = m.seen[j].round
	}
	slices.SortFunc(group, func(a, b pick) int {
		return cmp.Or(cmp.Compare(a.round, b.round), cmp.Compare(a.plane, b.plane))
	})
}

// forcedHop steps over endpoint n when a search confined by mask has no
// choice there: n does not forward and exactly one of its links (out-links
// of a source, in-links of a destination) is usable and up, leading to a
// node that does forward. It returns that neighbour and the link. An
// endpoint with a choice is returned as it is with link -1, and ok is
// false when no link is usable: the plane holds no path for n.
func forcedHop(fz *graph.Frozen, n graph.NodeID, links []graph.LinkID, far func(graph.LinkID) graph.NodeID, mask []bool) (graph.NodeID, graph.LinkID, bool) {
	if fz.Transit(n) {
		return n, -1, true
	}
	usable, only := 0, graph.LinkID(-1)
	for _, id := range links {
		if fz.LinkUp(id) && (mask == nil || !mask[id]) {
			usable++
			only = id
		}
	}
	if usable == 1 && fz.Transit(far(only)) {
		return far(only), only, true
	}
	return n, -1, usable > 0
}

// PlaneSpread counts, for a path list, how many distinct planes it covers.
func PlaneSpread(g *graph.Graph, paths []graph.Path) int {
	seen := map[int32]bool{}
	for _, p := range paths {
		seen[p.Plane(g)] = true
	}
	return len(seen)
}
