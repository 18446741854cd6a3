package graph

import (
	"testing"
	"testing/quick"
)

func TestWeightedShortestBasic(t *testing.T) {
	// Diamond with weights: short hop-count path made expensive.
	g := diamond()
	w := make([]float64, g.NumLinks())
	for i := range w {
		w[i] = 1
	}
	// Make every link out of node 0 toward 1 and 2 expensive except the
	// detour via 4.
	for _, id := range g.Frozen().OutLinks(0) {
		if d := g.Link(id).Dst; d == 1 || d == 2 {
			w[id] = 100
		}
	}
	p, dist, ok := WeightedShortestPath(g, 0, 3, w)
	if !ok {
		t.Fatal("no path")
	}
	if p.Len() != 3 { // 0-4-5-3
		t.Errorf("path len = %d, want 3 (detour)", p.Len())
	}
	if dist != 3 {
		t.Errorf("dist = %v, want 3", dist)
	}
}

func TestWeightedShortestMatchesBFSOnUnitWeights(t *testing.T) {
	prop := func(seed int64) bool {
		g, src, dst := randomConnected(seed, 14, 20)
		w := make([]float64, g.NumLinks())
		for i := range w {
			w[i] = 1
		}
		wp, dist, ok1 := WeightedShortestPath(g, src, dst, w)
		bp := KShortestPathsMasked(g, src, dst, 1, nil)
		if ok1 != (len(bp) > 0) {
			return false
		}
		if !ok1 {
			return true
		}
		return wp.Len() == bp[0].Len() && int(dist) == bp[0].Len()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestWeightedShortestRespectsTransitAndState(t *testing.T) {
	g := line(3)
	w := []float64{1, 1, 1, 1}
	g.SetTransit(1, false)
	if _, _, ok := WeightedShortestPath(g, 0, 2, w); ok {
		t.Error("routed through a host")
	}
	g.SetTransit(1, true)
	if _, _, ok := WeightedShortestPath(g, 0, 2, w); !ok {
		t.Error("no path with transit restored")
	}
	for _, id := range g.Frozen().OutLinks(1) {
		g.SetLinkUp(id, false)
	}
	if _, _, ok := WeightedShortestPath(g, 0, 2, w); ok {
		t.Error("routed over down link")
	}
}

func TestWeightedShortestSameNode(t *testing.T) {
	g := line(2)
	if _, _, ok := WeightedShortestPath(g, 0, 0, []float64{1, 1}); ok {
		t.Error("path from node to itself")
	}
}

func TestReverseLink(t *testing.T) {
	g := New(3)
	ab, ba := g.AddDuplex(0, 1, 100, 2)
	if rid, ok := g.ReverseLink(ab); !ok || rid != ba {
		t.Errorf("reverse of ab = %d %v", rid, ok)
	}
	if rid, ok := g.ReverseLink(ba); !ok || rid != ab {
		t.Errorf("reverse of ba = %d %v", rid, ok)
	}
	// A one-way link has no reverse.
	one := g.AddLink(1, 2, 100, 0)
	if _, ok := g.ReverseLink(one); ok {
		t.Error("one-way link reported a reverse")
	}
}

func TestReverseLinkMatchesPlane(t *testing.T) {
	// Two parallel duplexes on different planes between the same nodes:
	// the reverse must stay on the same plane.
	g := New(2)
	a0, b0 := g.AddDuplex(0, 1, 100, 0)
	a1, b1 := g.AddDuplex(0, 1, 100, 1)
	if rid, _ := g.ReverseLink(a0); rid != b0 {
		t.Errorf("plane-0 reverse = %d, want %d", rid, b0)
	}
	if rid, _ := g.ReverseLink(a1); rid != b1 {
		t.Errorf("plane-1 reverse = %d, want %d", rid, b1)
	}
}

func TestReversePathRoundTrip(t *testing.T) {
	g := diamond()
	p := KShortestPathsMasked(g, 0, 3, 1, nil)[0]
	links, ok := AppendReverse(nil, g, p)
	if !ok {
		t.Fatal("no reverse path")
	}
	rev := Path{Links: links}
	if rev.Src(g) != 3 || rev.Dst(g) != 0 {
		t.Errorf("reverse endpoints %d -> %d", rev.Src(g), rev.Dst(g))
	}
	if !rev.Valid(g) {
		t.Error("reverse path invalid")
	}
	// Appended after a prefix, which it leaves alone.
	back, _ := AppendReverse(links[:1:1], g, rev)
	if !(Path{Links: back[1:]}).Equal(p) || back[0] != links[0] {
		t.Error("double reverse != original")
	}
	// A one-way link has no twin: no reverse, and the buffer comes back
	// as it was.
	h := New(0)
	id := h.AddLink(h.AddNode(true), h.AddNode(true), 1, 0)
	if got, ok := AppendReverse([]LinkID{7}, h, Path{Links: []LinkID{id}}); ok || len(got) != 1 || got[0] != 7 {
		t.Errorf("one-way link: reverse %v, ok %v; want [7], false", got, ok)
	}
}

func TestSplitmixSpreads(t *testing.T) {
	// The per-hop hash must spread well over small moduli.
	counts := make([]int, 4)
	x := uint64(12345)
	for i := 0; i < 4000; i++ {
		x = splitmix64(x)
		counts[x%4]++
	}
	for i, c := range counts {
		if c < 800 || c > 1200 {
			t.Errorf("bucket %d = %d of 4000 (poor spread)", i, c)
		}
	}
}

func TestHopDistancesFromHostSource(t *testing.T) {
	// A non-transit SOURCE may still originate traffic.
	g := line(3)
	g.SetTransit(0, false)
	d := HopDistances(g, 0)
	if d[2] != 2 {
		t.Errorf("dist from host source = %d, want 2", d[2])
	}
}
