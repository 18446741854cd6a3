package route_test

import (
	"fmt"
	"testing"

	"pnet/internal/core"
	"pnet/internal/graph"
	"pnet/internal/route"
	"pnet/internal/topo"
)

// The selector's contract (§3.4) and the exactness of its host-edge
// splice, over every topology family the experiments route on, healthy
// and with a link down. An external test package so that the
// class-confined selector, which lives above route in core, rides along.

type selectorNet struct {
	name   string
	planes int
	homo   bool // every plane the same graph
	build  func() *topo.Topology
}

func selectorNets() []selectorNet {
	var nets []selectorNet
	for _, n := range []int{1, 2, 4} {
		nets = append(nets,
			selectorNet{fmt.Sprintf("fattree/N=%d", n), n, true, func() *topo.Topology { return topo.FatTreeSet(4, n, 100).ParallelHomo }},
			selectorNet{fmt.Sprintf("jellyfish-homo/N=%d", n), n, true, func() *topo.Topology { return topo.JellyfishSet(10, 3, 2, n, 100, 5).ParallelHomo }},
			selectorNet{fmt.Sprintf("jellyfish-hetero/N=%d", n), n, false, func() *topo.Topology { return topo.JellyfishSet(10, 3, 2, n, 100, 5).ParallelHetero }},
		)
		if n >= 2 {
			nets = append(nets, selectorNet{fmt.Sprintf("mixed/N=%d", n), n, false, func() *topo.Topology { return topo.MixedPNet(4, n, 100, 5) }})
		}
	}
	return nets
}

// selectorFaults are applied to a freshly built topology. Both take a
// whole cable (the two directions) down, on plane 0.
var selectorFaults = []struct {
	name  string
	apply func(tp *topo.Topology)
}{
	{"healthy", func(*topo.Topology) {}},
	{"host-uplink-down", func(tp *topo.Topology) {
		tp.G.SetLinkUp(tp.Uplinks[0][0], false)
		tp.G.SetLinkUp(tp.Downlinks[0][0], false)
	}},
	{"core-link-down", func(tp *topo.Topology) {
		id := tp.InterSwitchLinks()[0]
		tp.G.SetLinkUp(id, false)
		if rev, ok := tp.G.ReverseLink(id); ok {
			tp.G.SetLinkUp(rev, false)
		}
	}},
}

// selectorPairs covers host 0 (whose plane-0 uplink the fault takes) as a
// source and as a destination, a same-rack pair and two far pairs.
func selectorPairs(tp *topo.Topology) []route.Commodity {
	h := tp.Hosts
	last := len(h) - 1
	var cs []route.Commodity
	for _, p := range [][2]int{{0, last}, {last, 0}, {0, 1}, {3, last - 4}, {last / 2, last/2 + 1}} {
		cs = append(cs, route.Commodity{Src: h[p[0]], Dst: h[p[1]], Demand: 1})
	}
	return cs
}

func TestSelectorContract(t *testing.T) {
	const k = 6
	for _, net := range selectorNets() {
		for _, fault := range selectorFaults {
			t.Run(net.name+"/"+fault.name, func(t *testing.T) {
				tp := net.build()
				fault.apply(tp)
				cs := selectorPairs(tp)

				// The class takes the odd planes (plane 0 alone when
				// there is no other), so it is a strict subset for N > 1.
				var classPlanes []int
				for pl := 1; pl < net.planes; pl += 2 {
					classPlanes = append(classPlanes, pl)
				}
				if len(classPlanes) == 0 {
					classPlanes = []int{0}
				}
				pn := core.New(tp)
				if err := pn.SetClass("odd", classPlanes); err != nil {
					t.Fatal(err)
				}
				confined := make([][]graph.Path, len(cs))
				for i, c := range cs {
					confined[i] = pn.ClassPaths("odd", c.Src, c.Dst, k)
				}

				every := make([]int, net.planes)
				for pl := range every {
					every[pl] = pl
				}
				for _, sel := range []struct {
					name   string
					planes []int
					paths  [][]graph.Path
				}{
					{"KSPPaths", every, route.KSPPaths(tp.G, cs, k)},
					{"KSPPathsSeeded", every, route.KSPPathsSeeded(tp.G, cs, k, 7)},
					{"ClassPaths", classPlanes, confined},
				} {
					for i, c := range cs {
						checkPathSet(t, fmt.Sprintf("%s %d->%d", sel.name, c.Src, c.Dst), tp.G, c, sel.paths[i], k, sel.planes)
						if fault.name != "healthy" {
							continue
						}
						if len(sel.paths[i]) == 0 {
							t.Errorf("%s %d->%d: no path on a healthy network", sel.name, c.Src, c.Dst)
						}
						if net.homo {
							// §4's N×8 rule rests on this: identical planes
							// tie at the shortest length, and the first
							// subflows must land one per plane.
							want := min(k, len(sel.planes))
							if got := route.PlaneSpread(tp.G, sel.paths[i][:min(want, len(sel.paths[i]))]); got != want {
								t.Errorf("%s %d->%d: first %d paths cover %d planes", sel.name, c.Src, c.Dst, want, got)
							}
						}
					}
				}
			})
		}
	}
}

// checkPathSet asserts what every path set the selector hands a transport
// must satisfy, whatever the topology's state.
func checkPathSet(t *testing.T, what string, g *graph.Graph, c route.Commodity, paths []graph.Path, k int, planes []int) {
	t.Helper()
	if len(paths) > k {
		t.Errorf("%s: %d paths, asked for %d", what, len(paths), k)
	}
	allowed := map[int32]bool{}
	for _, pl := range planes {
		allowed[int32(pl)] = true
	}
	for i, p := range paths {
		if !p.Valid(g) { // contiguous, loop-free, up links, no transit through a host
			t.Fatalf("%s: path %d invalid: %v", what, i, p.Links)
		}
		if p.Src(g) != c.Src || p.Dst(g) != c.Dst {
			t.Errorf("%s: path %d runs %d->%d", what, i, p.Src(g), p.Dst(g))
		}
		for _, id := range p.Links {
			if pl := g.Link(id).Plane; pl != p.Plane(g) {
				t.Errorf("%s: path %d crosses from plane %d to %d", what, i, p.Plane(g), pl)
			}
		}
		if !allowed[p.Plane(g)] {
			t.Errorf("%s: path %d on plane %d, outside %v", what, i, p.Plane(g), planes)
		}
		if i > 0 && p.Len() < paths[i-1].Len() {
			t.Errorf("%s: path %d shorter than path %d", what, i, i-1)
		}
		for j := 0; j < i; j++ {
			if p.Equal(paths[j]) {
				t.Errorf("%s: paths %d and %d are the same path", what, j, i)
			}
		}
	}
}

func equalPaths(t *testing.T, what string, got, want []graph.Path) {
	t.Helper()
	if len(got) != len(want) {
		t.Errorf("%s: %d paths, direct search finds %d", what, len(got), len(want))
		return
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Errorf("%s: path %d is %v, direct search finds %v", what, i, got[i].Links, want[i].Links)
			return
		}
	}
}

// TestSpliceMatchesDirect: stepping over a host's forced first and last
// hop is an optimization, never a different answer. On one plane the
// selector's output must be Yen's algorithm between the endpoints
// themselves, path for path, at the overshoot depth the seeded callers use.
func TestSpliceMatchesDirect(t *testing.T) {
	const k = 6 + 8
	for _, net := range selectorNets() {
		for _, fault := range selectorFaults {
			t.Run(net.name+"/"+fault.name, func(t *testing.T) {
				tp := net.build()
				fault.apply(tp)
				cs := selectorPairs(tp)
				for pl, mask := range tp.G.PlaneMasks() {
					got := route.AcrossPlanes(tp.G, [][]bool{mask}, cs, k, nil)
					for i, c := range cs {
						want := graph.KShortestPathsMasked(tp.G, c.Src, c.Dst, k, mask)
						equalPaths(t, fmt.Sprintf("plane %d %d->%d", pl, c.Src, c.Dst), got[i], want)
					}
				}
			})
		}
	}

	// A graph no builder makes, for the endpoints that must NOT be stepped
	// over: a dual-homed host (a choice of first hop), hosts cabled back to
	// back (the forced hop leads to a node that does not forward), switches
	// as endpoints, and a host whose only link is down.
	t.Run("hand-built", func(t *testing.T) {
		g := graph.New(9)
		const a, b, c, d, e = 0, 1, 2, 3, 4 // hosts
		const s1, s2, s3, s4 = 5, 6, 7, 8   // switches
		for _, h := range []graph.NodeID{a, b, c, d, e} {
			g.SetTransit(h, false)
		}
		for _, l := range [][2]graph.NodeID{
			{a, s1}, {a, s2}, {b, s3}, {c, s4}, {c, b}, {d, c}, {e, s4},
			{s1, s3}, {s2, s3}, {s1, s2}, {s3, s4}, {s2, s4},
		} {
			g.AddDuplex(l[0], l[1], 100, -1)
		}
		g.SetLinkUp(g.OutLinks(e)[0], false)
		var cs []route.Commodity
		for src := 0; src < g.NumNodes(); src++ {
			for dst := 0; dst < g.NumNodes(); dst++ {
				cs = append(cs, route.Commodity{Src: graph.NodeID(src), Dst: graph.NodeID(dst), Demand: 1})
			}
		}
		got := route.KSPPaths(g, cs, k)
		for i, c := range cs {
			equalPaths(t, fmt.Sprintf("%d->%d", c.Src, c.Dst), got[i], graph.KShortestPathsMasked(g, c.Src, c.Dst, k, nil))
		}
	})
}
