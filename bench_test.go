// Package pnet's benchmarks are the ablation experiments EXPERIMENTS.md
// reports: each quantifies one design choice called out in DESIGN.md §6
// and prints it as a custom metric. (The performance benchmark is
// `sh bench/run.sh`; see bench/README.md.)
//
//	go test -run '^$' -bench=Ablation -benchtime 1x
package pnet

import (
	"math/rand"
	"strconv"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/mcf"
	"pnet/internal/route"
	"pnet/internal/topo"
	"pnet/internal/workload"
)

// BenchmarkAblationKSPvsPlanes measures the paper's N×8 rule directly:
// the multipath degree needed to reach 95% of an N-plane fat tree's
// capacity, reported as the saturating K per plane count.
func BenchmarkAblationKSPvsPlanes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, planes := range []int{1, 2, 4} {
			set := topo.FatTreeSet(8, planes, 100)
			tp := set.SerialLow
			if planes > 1 {
				tp = set.ParallelHomo
			}
			cs := workload.PermutationCommodities(tp, 100, rng(7))
			lambdaAt := func(k int) float64 {
				paths := route.KSPPathsSeeded(tp.G, cs, k, 3)
				return mcf.FixedPaths(tp.G, cs, paths, mcf.Options{Epsilon: 0.08}).Lambda
			}
			// Saturation is judged against the network's own K=64 value,
			// cancelling the GK approximation's systematic ~ε shortfall.
			ref := lambdaAt(64)
			satK := 0
			for _, k := range []int{4, 8, 16, 32} {
				if lambdaAt(k) >= 0.95*ref {
					satK = k
					break
				}
			}
			if satK == 0 {
				satK = 64
			}
			b.ReportMetric(float64(satK), "satK-"+strconv.Itoa(planes)+"planes")
		}
	}
}

// BenchmarkAblationGKvsExact compares the Garg–Könemann approximation
// against the exact simplex LP on a small instance and reports the ratio.
func BenchmarkAblationGKvsExact(b *testing.B) {
	set := topo.FatTreeSet(4, 2, 100)
	tp := set.ParallelHomo
	cs := workload.PermutationCommodities(tp, 100, rng(5))
	paths := route.AcrossPlanes(tp.G, tp.G.PlaneMasks(), cs, 8, nil)
	exact, err := mcf.FixedPathsExact(tp.G, cs, paths)
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		approx := mcf.FixedPaths(tp.G, cs, paths, mcf.Options{Epsilon: 0.05})
		ratio = approx.Lambda / exact.Lambda
	}
	b.ReportMetric(ratio, "gk/exact")
	if ratio < 0.85 || ratio > 1.001 {
		b.Fatalf("GK ratio %v out of tolerance", ratio)
	}
}

// BenchmarkAblationECMPvsRoundRobin compares ECMP hashing against
// round-robin plane rotation for permutation traffic on a 4-plane fat
// tree (both pinned single path; metric = achieved throughput ratio
// round-robin / ECMP).
func BenchmarkAblationECMPvsRoundRobin(b *testing.B) {
	set := topo.FatTreeSet(8, 4, 100)
	tp := set.ParallelHomo
	var ratio float64
	for i := 0; i < b.N; i++ {
		cs := workload.PermutationCommodities(tp, 0, rng(11))
		ecmpPaths := route.ECMPPaths(tp.G, cs, 9)
		ecmp := mcf.MaxMinPinned(tp.G, cs, ecmpPaths).Total

		// Round-robin: commodity i uses plane i mod planes, then the
		// deterministic shortest path within it.
		rrPaths := make([][]graph.Path, len(cs))
		masks := tp.G.PlaneMasks()
		for j, c := range cs {
			plane := j % tp.Planes
			ps := graph.KShortestPathsMasked(tp.G, c.Src, c.Dst, 1, masks[plane])
			rrPaths[j] = ps
		}
		rr := mcf.MaxMinPinned(tp.G, cs, rrPaths).Total
		ratio = rr / ecmp
	}
	b.ReportMetric(ratio, "rr/ecmp")
}

// BenchmarkAblationLowestHopPlane quantifies the heterogeneous P-Net's
// shortest-path advantage: mean hop count of best-across-planes paths vs
// plane-0-only paths.
func BenchmarkAblationLowestHopPlane(b *testing.B) {
	set := topo.ScaledJellyfish(24, 4, 100, 7)
	tp := set.ParallelHetero
	var best, p0 float64
	for i := 0; i < b.N; i++ {
		cs := workload.PermutationCommodities(tp, 1, rng(3))
		bestSum, p0Sum := 0.0, 0.0
		mask := tp.G.PlaneMasks()[0]
		for _, c := range cs {
			bp := graph.KShortestPathsMasked(tp.G, c.Src, c.Dst, 1, nil)[0]
			bestSum += float64(bp.Len())
			zp := graph.KShortestPathsMasked(tp.G, c.Src, c.Dst, 1, mask)[0]
			p0Sum += float64(zp.Len())
		}
		best = bestSum / float64(len(cs))
		p0 = p0Sum / float64(len(cs))
	}
	b.ReportMetric(best, "hops-best-plane")
	b.ReportMetric(p0, "hops-plane0")
}

func rng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
