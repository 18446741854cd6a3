package graph

import "slices"

// Frozen is a Graph's adjacency: a compact, read-only snapshot in CSR
// (compressed sparse row) form, built for the solver and routing hot
// paths. The Graph itself keeps only its node flags and link list. Out-
// and in-edges live in two flat arrays indexed by per-node offsets, and
// the per-link fields the inner loops touch (destination, capacity, up
// state) are split into parallel arrays, so edge relaxation is a
// cache-linear scan with no Link struct copy per edge.
//
// Edge order within a node is link ID order, which is insertion order,
// so ties between equal paths break the same way in every search and
// results are reproducible for a fixed topology.
//
// A Frozen is immutable. Obtain one with Graph.Frozen(), which caches
// the snapshot and rebuilds it only after the graph mutates. All methods
// are safe for concurrent use.
type Frozen struct {
	outStart []int32 // len NumNodes()+1; out-links of n are outList[outStart[n]:outStart[n+1]]
	outList  []LinkID
	inStart  []int32
	inList   []LinkID

	// The up out-links of n, as (destination, link) pairs in insertion
	// order: upArcs[upStart[n]:upStart[n+1]]. Dijkstra and BFS walk these,
	// so a relaxation reads one pair instead of an ID, its destination and
	// its up state from three arrays.
	upStart []int32
	upArcs  []arc

	// Hot per-link arrays, indexed by LinkID.
	linkSrc []NodeID
	linkDst []NodeID
	linkCap []float64
	linkUp  []bool

	transit []bool
}

type arc struct {
	dst NodeID
	id  LinkID
}

// Frozen returns the CSR snapshot of the graph, building it on first use
// and after any mutation (AddNode/AddLink, SetLinkUp, SetCapacity,
// SetTransit). Concurrent callers against an unchanged graph share one
// snapshot; the build happens at most once per graph version. The
// returned view must be treated as read-only.
func (g *Graph) Frozen() *Frozen {
	g.frozenMu.Lock()
	defer g.frozenMu.Unlock()
	if g.frozen != nil && g.frozenVersion == g.version {
		return g.frozen
	}
	g.frozen = g.buildFrozen()
	g.frozenVersion = g.version
	return g.frozen
}

// buildFrozen lays the links out by a counting sort on their endpoints:
// each node's degrees, their prefix sums as the start offsets, then every
// link dropped into its nodes' next free slots. Links are placed in ID
// order, which is each node's insertion order.
func (g *Graph) buildFrozen() *Frozen {
	n, m := len(g.transit), len(g.links)
	fz := &Frozen{
		outStart: make([]int32, n+1),
		outList:  make([]LinkID, m),
		inStart:  make([]int32, n+1),
		inList:   make([]LinkID, m),
		upStart:  make([]int32, n+1),
		linkSrc:  make([]NodeID, m),
		linkDst:  make([]NodeID, m),
		linkCap:  make([]float64, m),
		linkUp:   make([]bool, m),
		transit:  append([]bool(nil), g.transit...),
	}
	for i := range g.links {
		l := &g.links[i]
		fz.linkSrc[i] = l.Src
		fz.linkDst[i] = l.Dst
		fz.linkCap[i] = l.Capacity
		fz.linkUp[i] = l.Up
		fz.outStart[l.Src+1]++
		fz.inStart[l.Dst+1]++
		if l.Up {
			fz.upStart[l.Src+1]++
		}
	}
	for u := 1; u <= n; u++ {
		fz.outStart[u] += fz.outStart[u-1]
		fz.inStart[u] += fz.inStart[u-1]
		fz.upStart[u] += fz.upStart[u-1]
	}
	fz.upArcs = make([]arc, fz.upStart[n])
	outNext := slices.Clone(fz.outStart[:n]) // each node's next free slot
	inNext := slices.Clone(fz.inStart[:n])
	upNext := slices.Clone(fz.upStart[:n])
	for i := range g.links {
		l := &g.links[i]
		id := LinkID(i)
		fz.outList[outNext[l.Src]] = id
		outNext[l.Src]++
		fz.inList[inNext[l.Dst]] = id
		inNext[l.Dst]++
		if l.Up {
			fz.upArcs[upNext[l.Src]] = arc{l.Dst, id}
			upNext[l.Src]++
		}
	}
	return fz
}

// NumNodes returns the number of nodes in the snapshot.
func (fz *Frozen) NumNodes() int { return len(fz.transit) }

// NumLinks returns the number of directed links, including down links.
func (fz *Frozen) NumLinks() int { return len(fz.linkSrc) }

// OutLinks returns the IDs of links leaving node n, in insertion order.
// The slice aliases the CSR array and must not be modified.
func (fz *Frozen) OutLinks(n NodeID) []LinkID {
	return fz.outList[fz.outStart[n]:fz.outStart[n+1]]
}

// InLinks returns the IDs of links entering node n, in insertion order.
func (fz *Frozen) InLinks(n NodeID) []LinkID {
	return fz.inList[fz.inStart[n]:fz.inStart[n+1]]
}

// Transit reports whether node n may forward traffic.
func (fz *Frozen) Transit(n NodeID) bool { return fz.transit[n] }

// LinkSrc returns the source node of link id.
func (fz *Frozen) LinkSrc(id LinkID) NodeID { return fz.linkSrc[id] }

// LinkDst returns the destination node of link id.
func (fz *Frozen) LinkDst(id LinkID) NodeID { return fz.linkDst[id] }

// LinkCap returns the capacity of link id in Gb/s.
func (fz *Frozen) LinkCap(id LinkID) float64 { return fz.linkCap[id] }

// LinkUp reports the administrative state of link id at snapshot time.
func (fz *Frozen) LinkUp(id LinkID) bool { return fz.linkUp[id] }
