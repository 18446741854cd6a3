package core

import (
	"fmt"
	"sort"

	"pnet/internal/graph"
	"pnet/internal/route"
)

// Traffic-class isolation (§7, "Performance isolation"): because P-Net's
// dataplanes share nothing but the hosts, an operator can pin a traffic
// class — a tenant, or a service tier like "user-facing frontend" vs
// "background analytics" — to a subset of planes and obtain strict
// bandwidth isolation without any in-network scheduler.

// SetClass assigns a named traffic class to a subset of planes. Flows
// routed through ClassPath/ClassPaths never leave those planes. Classes
// may overlap; an empty plane list removes the class.
func (p *PNet) SetClass(name string, planes []int) error {
	for _, pl := range planes {
		if pl < 0 || pl >= p.Topo.Planes {
			return fmt.Errorf("core: class %q references plane %d of %d", name, pl, p.Topo.Planes)
		}
	}
	if p.classes == nil {
		p.classes = make(map[string][]int)
	}
	if len(planes) == 0 {
		delete(p.classes, name)
		delete(p.classMasks, name)
		return nil
	}
	sorted := append([]int(nil), planes...)
	sort.Ints(sorted)
	p.classes[name] = sorted
	if p.classMasks == nil {
		p.classMasks = make(map[string][]bool)
	}
	p.classMasks[name] = p.maskExcept(sorted)
	return nil
}

// Class returns the planes assigned to a class, or nil if undefined.
func (p *PNet) Class(name string) []int { return p.classes[name] }

// maskExcept builds a banned-links mask that confines routing to the
// given planes (plane −1 links stay usable everywhere).
func (p *PNet) maskExcept(planes []int) []bool {
	allowed := map[int32]bool{}
	for _, pl := range planes {
		allowed[int32(pl)] = true
	}
	g := p.Topo.G
	mask := make([]bool, g.NumLinks())
	for i := 0; i < g.NumLinks(); i++ {
		if pl := g.Link(graph.LinkID(i)).Plane; pl >= 0 && !allowed[pl] {
			mask[i] = true
		}
	}
	return mask
}

// ClassPath returns a single path for a flow of the given class: the flow
// hash picks one of the class's planes, then the shortest path within it.
// ok is false when the class is undefined or no path exists.
func (p *PNet) ClassPath(name string, src, dst graph.NodeID, flowHash uint64) (graph.Path, bool) {
	planes := p.classes[name]
	if len(planes) == 0 {
		return graph.Path{}, false
	}
	// Hash across the class's planes, then route within that plane;
	// fall back to the other class planes if the hashed one has no path.
	start := int(flowHash % uint64(len(planes)))
	masks := p.Topo.G.PlaneMasks()
	for i := 0; i < len(planes); i++ {
		mask := masks[planes[(start+i)%len(planes)]]
		if ps := graph.KShortestPathsMasked(p.Topo.G, src, dst, 1, mask); len(ps) > 0 {
			return ps[0], true
		}
	}
	return graph.Path{}, false
}

// ClassLowLatencyPath returns the lowest-hop path across the class's
// planes — the class-scoped version of LowLatencyPath.
func (p *PNet) ClassLowLatencyPath(name string, src, dst graph.NodeID) (graph.Path, bool) {
	mask, ok := p.classMasks[name]
	if !ok {
		return graph.Path{}, false
	}
	ps := graph.KShortestPathsMasked(p.Topo.G, src, dst, 1, mask)
	if len(ps) == 0 {
		return graph.Path{}, false
	}
	return ps[0], true
}

// ClassPaths returns up to k shortest paths confined to the class's
// planes, interleaved across them — the class-scoped version of
// HighThroughputPaths.
func (p *PNet) ClassPaths(name string, src, dst graph.NodeID, k int) []graph.Path {
	planes := p.classes[name]
	if len(planes) == 0 {
		return nil
	}
	every := p.Topo.G.PlaneMasks()
	masks := make([][]bool, len(planes))
	for i, plane := range planes {
		masks[i] = every[plane]
	}
	return route.AcrossPlanes(p.Topo.G, masks, []route.Commodity{{Src: src, Dst: dst}}, k, nil)[0]
}
