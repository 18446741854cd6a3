package graph

// Path is an ordered sequence of directed links from a source to a
// destination. A valid path's links are contiguous: link i's Dst equals
// link i+1's Src.
type Path struct {
	Links []LinkID
}

// Len returns the number of hops (links) in the path.
func (p Path) Len() int { return len(p.Links) }

// Nodes expands the path into the node sequence it traverses.
func (p Path) Nodes(g *Graph) []NodeID {
	if len(p.Links) == 0 {
		return nil
	}
	nodes := make([]NodeID, 0, len(p.Links)+1)
	nodes = append(nodes, g.Link(p.Links[0]).Src)
	for _, l := range p.Links {
		nodes = append(nodes, g.Link(l).Dst)
	}
	return nodes
}

// Src returns the first node of the path, or -1 for an empty path.
func (p Path) Src(g *Graph) NodeID {
	if len(p.Links) == 0 {
		return -1
	}
	return g.Link(p.Links[0]).Src
}

// Dst returns the last node of the path, or -1 for an empty path.
func (p Path) Dst(g *Graph) NodeID {
	if len(p.Links) == 0 {
		return -1
	}
	return g.Link(p.Links[len(p.Links)-1]).Dst
}

// Plane returns the dataplane the path travels through, defined as the
// plane tag of its first link, or -1 for an empty path. In a P-Net every
// link of a host-to-host path shares one plane because planes are disjoint
// and hosts do not forward.
func (p Path) Plane(g *Graph) int32 {
	if len(p.Links) == 0 {
		return -1
	}
	return g.Link(p.Links[0]).Plane
}

// Valid reports whether the path is link-contiguous, loop-free, and uses
// only up links with no transit through non-transit interior nodes.
func (p Path) Valid(g *Graph) bool {
	if len(p.Links) == 0 {
		return false
	}
	fz := g.Frozen()
	seen := map[NodeID]bool{g.Link(p.Links[0]).Src: true}
	for i, id := range p.Links {
		l := g.Link(id)
		if !l.Up {
			return false
		}
		if i > 0 {
			if fz.LinkDst(p.Links[i-1]) != l.Src || !fz.Transit(l.Src) {
				return false
			}
		}
		if seen[l.Dst] {
			return false
		}
		seen[l.Dst] = true
	}
	return true
}

// Equal reports whether two paths traverse the same link sequence.
func (p Path) Equal(q Path) bool {
	if len(p.Links) != len(q.Links) {
		return false
	}
	for i := range p.Links {
		if p.Links[i] != q.Links[i] {
			return false
		}
	}
	return true
}

// key returns a comparable representation used for de-duplication.
func (p Path) key() string {
	b := make([]byte, 0, 4*len(p.Links))
	for _, l := range p.Links {
		b = append(b, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return string(b)
}
