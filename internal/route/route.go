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
	"math/rand"
	"sort"

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
	// leg is one commodity's share of one plane: a search result with the
	// commodity's own forced links (-1 for none) around it.
	type leg struct {
		search   int
		up, down graph.LinkID
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
		var all []graph.Path
		for _, lg := range legs[i] {
			for _, mid := range found[lg.search] {
				all = append(all, splice(lg.up, mid, lg.down))
			}
		}
		sort.SliceStable(all, func(a, b int) bool { return all[a].Len() < all[b].Len() })
		if tie != nil {
			shuffleTies(all, rand.New(rand.NewSource(tie(i))))
		}
		all = interleavePlanes(g, all)
		if len(all) > k {
			all = all[:k]
		}
		out[i] = all
	})
	return out
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

// splice puts a commodity's forced links back around a search result.
func splice(up graph.LinkID, mid graph.Path, down graph.LinkID) graph.Path {
	links := make([]graph.LinkID, 0, len(mid.Links)+2)
	if up >= 0 {
		links = append(links, up)
	}
	links = append(links, mid.Links...)
	if down >= 0 {
		links = append(links, down)
	}
	return graph.Path{Links: links}
}

// shuffleTies randomly permutes paths within each run of equal lengths,
// preserving the overall by-length ordering. Paths must be sorted by
// length.
func shuffleTies(paths []graph.Path, rng *rand.Rand) {
	for lo := 0; lo < len(paths); {
		hi := lo + 1
		for hi < len(paths) && paths[hi].Len() == paths[lo].Len() {
			hi++
		}
		group := paths[lo:hi]
		rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
		lo = hi
	}
}

// interleavePlanes stably reorders paths so that, within each group of
// equal-length paths, planes alternate (plane 0, 1, 2, ..., 0, 1, ...).
// Paths are assumed sorted by length, as AcrossPlanes merges them.
func interleavePlanes(g *graph.Graph, paths []graph.Path) []graph.Path {
	out := make([]graph.Path, 0, len(paths))
	for lo := 0; lo < len(paths); {
		hi := lo + 1
		for hi < len(paths) && paths[hi].Len() == paths[lo].Len() {
			hi++
		}
		out = append(out, interleaveGroup(g, paths[lo:hi])...)
		lo = hi
	}
	return out
}

func interleaveGroup(g *graph.Graph, group []graph.Path) []graph.Path {
	if len(group) <= 1 {
		return group
	}
	byPlane := map[int32][]graph.Path{}
	var planes []int32
	for _, p := range group {
		pl := p.Plane(g)
		if _, ok := byPlane[pl]; !ok {
			planes = append(planes, pl)
		}
		byPlane[pl] = append(byPlane[pl], p)
	}
	sort.Slice(planes, func(i, j int) bool { return planes[i] < planes[j] })
	out := make([]graph.Path, 0, len(group))
	for len(out) < len(group) {
		for _, pl := range planes {
			if ps := byPlane[pl]; len(ps) > 0 {
				out = append(out, ps[0])
				byPlane[pl] = ps[1:]
			}
		}
	}
	return out
}

// PlaneSpread counts, for a path list, how many distinct planes it covers.
func PlaneSpread(g *graph.Graph, paths []graph.Path) int {
	seen := map[int32]bool{}
	for _, p := range paths {
		seen[p.Plane(g)] = true
	}
	return len(seen)
}
