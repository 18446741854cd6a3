package mcf

import (
	"math/rand"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/route"
	"pnet/internal/topo"
	"pnet/internal/workload"
)

// randomInstance builds a small random heterogeneous Jellyfish P-Net with
// a random permutation and KSP path sets. Commodity j keeps its first
// 1+j%5 paths, so path counts are odd and even, and the lists hold
// equal-length pairs as well as pairs of unequal length: the fixed
// oracle sums two paths at once only when their lengths match.
func randomInstance(seed int64) (*graph.Graph, []route.Commodity, [][]graph.Path) {
	set := topo.JellyfishSet(8, 3, 2, 2, 100, seed)
	tp := set.ParallelHetero
	rng := rand.New(rand.NewSource(seed))
	cs := workload.PermutationCommodities(tp, 100, rng)
	paths := route.AcrossPlanes(tp.G, tp.G.PlaneMasks(), cs, 5, nil)
	for j, ps := range paths {
		paths[j] = ps[:min(len(ps), 1+j%5)]
	}
	return tp.G, cs, paths
}

// TestGKNeverExceedsExact: on every one of the 64 random instances the
// approximation stays within 5 % below the exact LP and never above it
// by more than its own slack: GK's flow is scaled by log_{1+ε}(1/δ), one
// phase short of the bound that makes it feasible, which can overshoot
// by about 5e-4 on these instances. The exact solver erring is a failure.
func TestGKNeverExceedsExact(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		g, cs, paths := randomInstance(seed)
		exact, err := FixedPathsExact(g, cs, paths)
		if err != nil {
			t.Errorf("seed %d: exact LP: %v", seed, err)
			continue
		}
		approx := FixedPaths(g, cs, paths, Options{Epsilon: 0.05})
		if r := approx.Lambda / exact.Lambda; r < 0.95 || r > 1.001 {
			t.Errorf("seed %d: GK %v / exact %v = %.4f, want in [0.95, 1.001]", seed, approx.Lambda, exact.Lambda, r)
		}
	}
}

// TestFreeDominatesFixed: removing the path restriction can only help.
func TestFreeDominatesFixed(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		g, cs, paths := randomInstance(seed)
		fixed := FixedPaths(g, cs, paths, Options{Epsilon: 0.06})
		free := Free(g, cs, Options{Epsilon: 0.06})
		// Allow the approximation slack on both sides.
		if free.Lambda < fixed.Lambda*0.85 {
			t.Errorf("seed %d: free λ=%v < fixed λ=%v", seed, free.Lambda, fixed.Lambda)
		}
	}
}

// TestMaxMinTotalDominatesConcurrent: the max-min-fair TOTAL is at least
// the equal-rate total (concurrent λ × n × demand) for the same pinned
// paths — fairness can only move rate around, never below the uniform
// optimum in aggregate.
func TestMaxMinTotalDominatesConcurrent(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		set := topo.JellyfishSet(8, 3, 2, 2, 100, seed)
		tp := set.ParallelHomo
		rng := rand.New(rand.NewSource(seed))
		cs := workload.PermutationCommodities(tp, 0, rng)
		paths := route.ECMPPaths(tp.G, cs, uint64(seed))
		mm := MaxMinPinned(tp.G, cs, paths)

		csCap := make([]route.Commodity, len(cs))
		copy(csCap, cs)
		for i := range csCap {
			csCap[i].Demand = 100
		}
		conc := Pinned(tp.G, csCap, paths)
		concTotal := conc.Lambda * 100 * float64(len(cs))
		if mm.Total < concTotal*0.999 {
			t.Errorf("seed %d: max-min total %v < concurrent total %v", seed, mm.Total, concTotal)
		}
		if mm.MinRate > conc.Lambda*100*1.001 {
			t.Errorf("seed %d: max-min min-rate %v exceeds concurrent rate %v",
				seed, mm.MinRate, conc.Lambda*100)
		}
	}
}

// TestMaxMinRatesRespectCapacities: no link carries more than capacity.
func TestMaxMinRatesRespectCapacities(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		set := topo.JellyfishSet(8, 3, 2, 2, 100, seed)
		tp := set.ParallelHomo
		rng := rand.New(rand.NewSource(seed))
		cs := workload.PermutationCommodities(tp, 0, rng)
		paths := route.ECMPPaths(tp.G, cs, uint64(seed))
		mm := MaxMinPinned(tp.G, cs, paths)

		load := make([]float64, tp.G.NumLinks())
		for i, ps := range paths {
			if len(ps) == 0 {
				continue
			}
			for _, l := range ps[0].Links {
				load[l] += mm.Rates[i]
			}
		}
		for i, ld := range load {
			cap := tp.G.Link(graph.LinkID(i)).Capacity
			if ld > cap*1.0001 {
				t.Fatalf("seed %d: link %d load %v exceeds capacity %v", seed, i, ld, cap)
			}
		}
	}
}

// TestSimplexMatchesHandLP checks the simplex against a hand-solved LP:
// max 3x+2y st x+y<=4, x<=2, y<=3 -> x=2,y=2, obj=10.
func TestSimplexMatchesHandLP(t *testing.T) {
	x, obj, err := simplexMax(
		[]float64{3, 2},
		[][]float64{{1, 1}, {1, 0}, {0, 1}},
		[]float64{4, 2, 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "obj", obj, 10, 1e-9)
	almost(t, "x", x[0], 2, 1e-9)
	almost(t, "y", x[1], 2, 1e-9)
}
