package mcf

import (
	"math"
	"math/rand"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/route"
	"pnet/internal/topo"
	"pnet/internal/workload"
)

func TestMaxMinSharedLink(t *testing.T) {
	// Two flows pinned to the same 10G path: 5 each.
	g := graph.New(3)
	g.SetTransit(0, false)
	g.SetTransit(2, false)
	g.AddDuplex(0, 1, 10, 0)
	g.AddDuplex(1, 2, 10, 0)
	p := graph.KShortestPathsMasked(g, 0, 2, 1, nil)[0]
	cs := []route.Commodity{{Src: 0, Dst: 2}, {Src: 0, Dst: 2}}
	r := MaxMinPinned(g, cs, [][]graph.Path{{p}, {p}})
	almost(t, "total", r.Total, 10, 1e-9)
	almost(t, "rate0", r.Rates[0], 5, 1e-9)
	almost(t, "minrate", r.MinRate, 5, 1e-9)
}

func TestMaxMinWaterFilling(t *testing.T) {
	// Classic three-flow example: flows A (x->z) and B (y->z) share the
	// 10G link into z; flow C (x->y) shares x's 30G uplink with A.
	// Max-min: A=B=5 on the z link; C then fills x's uplink to 25.
	g := graph.New(4)
	// hosts 0 (x), 1 (y); switch 2; host 3 (z) hangs off switch 2.
	g.SetTransit(0, false)
	g.SetTransit(1, false)
	g.SetTransit(3, false)
	g.AddDuplex(0, 2, 30, 0) // x uplink
	g.AddDuplex(1, 2, 30, 0) // y uplink
	g.AddDuplex(2, 3, 10, 0) // z downlink (bottleneck)
	pa := graph.KShortestPathsMasked(g, 0, 3, 1, nil)[0]
	pb := graph.KShortestPathsMasked(g, 1, 3, 1, nil)[0]
	pc := graph.KShortestPathsMasked(g, 0, 1, 1, nil)[0]
	cs := []route.Commodity{{Src: 0, Dst: 3}, {Src: 1, Dst: 3}, {Src: 0, Dst: 1}}
	r := MaxMinPinned(g, cs, [][]graph.Path{{pa}, {pb}, {pc}})
	almost(t, "A", r.Rates[0], 5, 1e-9)
	almost(t, "B", r.Rates[1], 5, 1e-9)
	almost(t, "C", r.Rates[2], 25, 1e-9)
	almost(t, "total", r.Total, 35, 1e-9)
}

func TestMaxMinDemandCap(t *testing.T) {
	g := graph.New(3)
	g.SetTransit(0, false)
	g.SetTransit(2, false)
	g.AddDuplex(0, 1, 10, 0)
	g.AddDuplex(1, 2, 10, 0)
	p := graph.KShortestPathsMasked(g, 0, 2, 1, nil)[0]
	// Demand 3 caps the first flow; the second takes the rest.
	cs := []route.Commodity{{Src: 0, Dst: 2, Demand: 3}, {Src: 0, Dst: 2}}
	r := MaxMinPinned(g, cs, [][]graph.Path{{p}, {p}})
	almost(t, "capped", r.Rates[0], 3, 1e-9)
	almost(t, "filler", r.Rates[1], 7, 1e-9)
}

func TestMaxMinUnrouted(t *testing.T) {
	g := graph.New(2)
	cs := []route.Commodity{{Src: 0, Dst: 1}}
	r := MaxMinPinned(g, cs, [][]graph.Path{nil})
	if r.Unrouted != 1 || r.Total != 0 {
		t.Errorf("r = %+v", r)
	}
}

func TestMaxMinMatchesConcurrentOnSymmetricCase(t *testing.T) {
	// When all flows share one bottleneck equally, max-min rates equal
	// the concurrent λ times demand.
	g := graph.New(3)
	g.SetTransit(0, false)
	g.SetTransit(2, false)
	g.AddDuplex(0, 1, 12, 0)
	g.AddDuplex(1, 2, 12, 0)
	p := graph.KShortestPathsMasked(g, 0, 2, 1, nil)[0]
	cs := []route.Commodity{
		{Src: 0, Dst: 2, Demand: 100},
		{Src: 0, Dst: 2, Demand: 100},
		{Src: 0, Dst: 2, Demand: 100},
	}
	paths := [][]graph.Path{{p}, {p}, {p}}
	mm := MaxMinPinned(g, cs, paths)
	conc := Pinned(g, cs, paths)
	almost(t, "maxmin rate", mm.Rates[0], conc.Lambda*100, 1e-9)
}

func TestMaxMinECMPAllToAllSaturates(t *testing.T) {
	// Sanity for the Fig. 6a metric: dense all-to-all under ECMP on a
	// 2-plane fat tree should achieve close to 2x the serial network.
	set := topo.FatTreeSet(4, 2, 100)
	run := func(tp *topo.Topology) float64 {
		cs := workload.AllToAllCommodities(tp, 0)
		paths := route.ECMPPaths(tp.G, cs, 77)
		return MaxMinPinned(tp.G, cs, paths).Total
	}
	serial := run(set.SerialLow)
	parallel := run(set.ParallelHomo)
	ratio := parallel / serial
	if ratio < 1.5 || ratio > 2.1 {
		t.Errorf("all-to-all ECMP ratio = %.2f, want ~2", ratio)
	}
}

func TestMaxMinDeterministic(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	tp := set.ParallelHomo
	rng := rand.New(rand.NewSource(3))
	cs := workload.PermutationCommodities(tp, 0, rng)
	paths := route.ECMPPaths(tp.G, cs, 5)
	a := MaxMinPinned(tp.G, cs, paths)
	b := MaxMinPinned(tp.G, cs, paths)
	if a.Total != b.Total {
		t.Error("MaxMinPinned not deterministic")
	}
}

// maxMinReference is MaxMinPinned as it was before it listed the
// demand-bounded commodities: every round scans all commodities for a
// positive demand. TestMaxMinMatchesReference holds the two to one
// allocation.
func maxMinReference(g *graph.Graph, cs []route.Commodity, paths [][]graph.Path) MaxMinResult {
	if len(paths) != len(cs) {
		panic("mcf: paths/commodities length mismatch")
	}
	n := len(cs)
	res := MaxMinResult{Rates: make([]float64, n)}

	remaining := make([]float64, g.NumLinks())
	for i := range remaining {
		remaining[i] = g.Link(graph.LinkID(i)).Capacity
	}
	flowsOn := make([][]int32, g.NumLinks())
	activeOn := make([]int, g.NumLinks())
	active := make([]bool, n)
	activeCount := 0
	for i, ps := range paths {
		if len(ps) == 0 {
			res.Unrouted++
			continue
		}
		active[i] = true
		activeCount++
		for _, e := range ps[0].Links {
			flowsOn[e] = append(flowsOn[e], int32(i))
			activeOn[e]++
		}
	}

	freeze := func(f int32, level float64) {
		if !active[f] {
			return
		}
		active[f] = false
		activeCount--
		res.Rates[f] = level
		for _, e := range paths[f][0].Links {
			activeOn[e]--
		}
	}

	level := 0.0
	for activeCount > 0 {
		// Next event: a link saturates or a flow reaches its demand.
		inc := math.Inf(1)
		for e := range activeOn {
			if activeOn[e] > 0 {
				if share := remaining[e] / float64(activeOn[e]); share < inc {
					inc = share
				}
			}
		}
		for i := range cs {
			if active[i] && cs[i].Demand > 0 {
				if room := cs[i].Demand - level; room < inc {
					inc = room
				}
			}
		}
		if math.IsInf(inc, 1) {
			// Active flows with neither a constraining link nor a demand.
			for i := range cs {
				if active[i] {
					freeze(int32(i), level)
				}
			}
			break
		}
		if inc < 0 {
			inc = 0
		}

		level += inc
		for e := range activeOn {
			if activeOn[e] > 0 {
				remaining[e] -= inc * float64(activeOn[e])
			}
		}
		const tol = 1e-9
		progressed := false
		for e := range activeOn {
			if activeOn[e] > 0 && remaining[e] <= tol*g.Link(graph.LinkID(e)).Capacity {
				for _, f := range flowsOn[e] {
					if active[f] {
						freeze(f, level)
						progressed = true
					}
				}
			}
		}
		for i := range cs {
			if active[i] && cs[i].Demand > 0 && level >= cs[i].Demand-tol {
				freeze(int32(i), level)
				progressed = true
			}
		}
		if !progressed {
			// Numerical corner: force progress rather than spin.
			for i := range cs {
				if active[i] {
					freeze(int32(i), level)
				}
			}
		}
	}

	res.MinRate = math.Inf(1)
	for i, r := range res.Rates {
		res.Total += r
		if len(paths[i]) > 0 && r < res.MinRate {
			res.MinRate = r
		}
	}
	if math.IsInf(res.MinRate, 1) {
		res.MinRate = 0
	}
	return res
}

// TestMaxMinMatchesReference: scanning only the commodities with a
// positive demand freezes the same flows in the same rounds at the same
// levels, so every rate, the total and the minimum are bit-identical to
// the reference. The instances are fig6a's shape (all-to-all, no
// demands), a permutation whose every flow is demand-bounded, and an
// all-to-all mixing unbounded flows with demands spread across the link
// freezes, so demand and link freezes interleave.
func TestMaxMinMatchesReference(t *testing.T) {
	tp := topo.FatTreeSet(4, 2, 100).ParallelHomo
	rng := rand.New(rand.NewSource(9))
	mixed := workload.AllToAllCommodities(tp, 0)
	demands := []float64{0, 0, 0.5, 1.25, 2, 3.5, 5, 8, 40}
	for i := range mixed {
		mixed[i].Demand = demands[rng.Intn(len(demands))]
	}
	for _, c := range []struct {
		name    string
		cs      []route.Commodity
		bounded bool // some flows freeze at their demand, some on a link
	}{
		{"all-to-all, no demands", workload.AllToAllCommodities(tp, 0), false},
		{"permutation, demand 60", workload.PermutationCommodities(tp, 60, rng), true},
		{"all-to-all, mixed demands", mixed, true},
	} {
		paths := route.ECMPPaths(tp.G, c.cs, 5)
		got := MaxMinPinned(tp.G, c.cs, paths)
		want := maxMinReference(tp.G, c.cs, paths)
		for i := range want.Rates {
			if math.Float64bits(got.Rates[i]) != math.Float64bits(want.Rates[i]) {
				t.Fatalf("%s: rate %d = %v, reference %v", c.name, i, got.Rates[i], want.Rates[i])
			}
		}
		if math.Float64bits(got.Total) != math.Float64bits(want.Total) || math.Float64bits(got.MinRate) != math.Float64bits(want.MinRate) || got.Unrouted != want.Unrouted {
			t.Fatalf("%s: total %v min %v unrouted %d, reference %v %v %d",
				c.name, got.Total, got.MinRate, got.Unrouted, want.Total, want.MinRate, want.Unrouted)
		}
		atDemand, belowDemand := 0, 0
		for i, r := range want.Rates {
			switch d := c.cs[i].Demand; {
			case d > 0 && r >= d-1e-9:
				atDemand++
			case d > 0:
				belowDemand++
			}
		}
		if c.bounded && (atDemand == 0 || belowDemand == 0) {
			t.Fatalf("%s: %d flows frozen at their demand, %d bounded flows frozen by a link; want both",
				c.name, atDemand, belowDemand)
		}
	}
}
