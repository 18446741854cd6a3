package graph

import "testing"

func TestEdgeDisjointDiamond(t *testing.T) {
	g := diamond()
	// Three link-disjoint routes exist: via 1, via 2, and via 4-5.
	if got := EdgeDisjointPaths(g, 0, 3, 0); got != 3 {
		t.Errorf("disjoint paths = %d, want 3", got)
	}
}

func TestEdgeDisjointLimit(t *testing.T) {
	g := diamond()
	if got := EdgeDisjointPaths(g, 0, 3, 2); got != 2 {
		t.Errorf("limited disjoint paths = %d, want 2", got)
	}
}

func TestEdgeDisjointLine(t *testing.T) {
	g := line(4)
	if got := EdgeDisjointPaths(g, 0, 3, 0); got != 1 {
		t.Errorf("line disjoint paths = %d, want 1", got)
	}
}

func TestEdgeDisjointDisconnected(t *testing.T) {
	g := New(2)
	if got := EdgeDisjointPaths(g, 0, 1, 0); got != 0 {
		t.Errorf("disconnected disjoint paths = %d", got)
	}
	if got := EdgeDisjointPaths(g, 0, 0, 0); got != 0 {
		t.Errorf("self disjoint paths = %d", got)
	}
}

func TestEdgeDisjointRespectsDownLinks(t *testing.T) {
	g := diamond()
	// Down the 0->1 link: only two routes remain.
	for _, id := range g.Frozen().OutLinks(0) {
		if g.Link(id).Dst == 1 {
			g.SetLinkUp(id, false)
		}
	}
	if got := EdgeDisjointPaths(g, 0, 3, 0); got != 2 {
		t.Errorf("disjoint paths after failure = %d, want 2", got)
	}
}

func TestEdgeDisjointNoTransitThroughHosts(t *testing.T) {
	// 0 -> {1,2} -> 3 where 1 is a host: only the route via 2 counts.
	g := New(4)
	g.AddDuplex(0, 1, 1, 0)
	g.AddDuplex(1, 3, 1, 0)
	g.AddDuplex(0, 2, 1, 0)
	g.AddDuplex(2, 3, 1, 0)
	g.SetTransit(1, false)
	if got := EdgeDisjointPaths(g, 0, 3, 0); got != 1 {
		t.Errorf("disjoint paths = %d, want 1 (host can't relay)", got)
	}
}

func TestEdgeDisjointNeedsAugmentReroute(t *testing.T) {
	// Classic max-flow case where a greedy path must be re-routed via a
	// residual (backward) edge:
	//   0->1, 0->2, 1->3, 2->3 and a tempting shortcut 1->2.
	// Greedy BFS may route 0-1-2-3 first; max flow is still 2.
	g := New(4)
	g.AddLink(0, 1, 1, 0)
	g.AddLink(0, 2, 1, 0)
	g.AddLink(1, 3, 1, 0)
	g.AddLink(2, 3, 1, 0)
	g.AddLink(1, 2, 1, 0)
	if got := EdgeDisjointPaths(g, 0, 3, 0); got != 2 {
		t.Errorf("disjoint paths = %d, want 2", got)
	}
}
