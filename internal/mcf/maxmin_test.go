package mcf

import (
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
