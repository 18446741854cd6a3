package graph

// Frozen is a compact, read-only adjacency snapshot of a Graph in CSR
// (compressed sparse row) form, built for the solver and routing hot
// paths. Out- and in-edges live in two flat arrays indexed by per-node
// offsets, and the per-link fields the inner loops touch (destination,
// capacity, up state) are split into parallel arrays, so edge relaxation
// is a cache-linear scan instead of a pointer chase through slice-of-
// slices adjacency with a bounds-checked Link struct copy per edge.
//
// Edge order within a node is the Graph's insertion order, so every
// algorithm ported to the frozen view visits links in exactly the order
// the *Graph-based implementations do — deterministic tie-breaking, and
// therefore results, are preserved bit for bit.
//
// A Frozen is immutable. Obtain one with Graph.Frozen(), which caches
// the snapshot and rebuilds it only after the graph mutates. All methods
// are safe for concurrent use.
type Frozen struct {
	numNodes int

	outStart []int32 // len numNodes+1; out-links of n are outList[outStart[n]:outStart[n+1]]
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

func (g *Graph) buildFrozen() *Frozen {
	n, m := len(g.transit), len(g.links)
	fz := &Frozen{
		numNodes: n,
		outStart: make([]int32, n+1),
		outList:  make([]LinkID, 0, m),
		inStart:  make([]int32, n+1),
		inList:   make([]LinkID, 0, m),
		upStart:  make([]int32, n+1),
		upArcs:   make([]arc, 0, m),
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
	}
	for u := 0; u < n; u++ {
		fz.outStart[u] = int32(len(fz.outList))
		fz.outList = append(fz.outList, g.out[u]...)
		fz.inStart[u] = int32(len(fz.inList))
		fz.inList = append(fz.inList, g.in[u]...)
		fz.upStart[u] = int32(len(fz.upArcs))
		for _, id := range g.out[u] {
			if fz.linkUp[id] {
				fz.upArcs = append(fz.upArcs, arc{fz.linkDst[id], id})
			}
		}
	}
	fz.outStart[n] = int32(len(fz.outList))
	fz.inStart[n] = int32(len(fz.inList))
	fz.upStart[n] = int32(len(fz.upArcs))
	return fz
}

// NumNodes returns the number of nodes in the snapshot.
func (fz *Frozen) NumNodes() int { return fz.numNodes }

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
