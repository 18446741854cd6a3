package mcf

import (
	"math"
	"math/rand"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/par"
	"pnet/internal/route"
	"pnet/internal/topo"
	"pnet/internal/workload"
)

// freeReference is a faithful copy of the pre-CSR Free solver: a per-pair
// graph.WeightedShortestPath oracle with the same (1+ε) path cache, and
// one graph.ShortestPath reachability probe per commodity. It exists so
// TestFreeMatchesReference can prove the source-amortized hot path
// reproduces the historical solver trajectory bit for bit.
func freeReference(g *graph.Graph, cs []route.Commodity, opts Options) Result {
	type cachedPath struct {
		path         graph.Path
		lenAtCompute float64
		valid        bool
	}
	cache := make([]cachedPath, len(cs))
	eps := opts.epsilon()
	oracle := func(j int, length []float64) (graph.Path, bool) {
		c := &cache[j]
		if c.valid {
			var cur float64
			for _, e := range c.path.Links {
				cur += length[e]
			}
			if cur <= (1+eps)*c.lenAtCompute {
				c.lenAtCompute = math.Min(c.lenAtCompute, cur)
				return c.path, true
			}
		}
		p, d, ok := graph.WeightedShortestPath(g, cs[j].Src, cs[j].Dst, length)
		if !ok {
			return graph.Path{}, false
		}
		cache[j] = cachedPath{path: p, lenAtCompute: d, valid: true}
		return p, true
	}
	unrouted := 0
	for _, ok := range par.Map(len(cs), func(j int) bool {
		_, ok := graph.ShortestPath(g, cs[j].Src, cs[j].Dst)
		return ok
	}) {
		if !ok {
			unrouted++
		}
	}
	if unrouted > 0 {
		return result(0, cs, unrouted)
	}
	lambda, stats := adaptiveGK(g.Frozen(), cs, oracle, eps)
	r := result(lambda, cs, 0)
	r.Stats = stats
	return r
}

// TestFreeMatchesReference: the CSR frozen view, the scratch-space
// Dijkstra, and the per-source reachability probe must not perturb the
// Garg–Könemann trajectory at all — λ, phase counts, iteration counts,
// and rescaling attempts are required to be bit-identical to the
// reference per-pair solver across topology families, plane counts, and
// accuracy settings.
func TestFreeMatchesReference(t *testing.T) {
	type instance struct {
		name string
		g    *graph.Graph
		cs   []route.Commodity
	}
	var instances []instance
	for _, planes := range []int{1, 4} {
		for _, tc := range []struct {
			name string
			set  topo.NetworkSet
		}{
			{"fattree", topo.FatTreeSet(4, planes, 100)},
			{"jellyfish", topo.JellyfishSet(8, 3, 2, planes, 100, 42)},
		} {
			tps := []*topo.Topology{tc.set.ParallelHomo}
			if planes > 1 && tc.set.ParallelHetero != nil {
				// Distinct planes give unequal path lengths and so tie
				// differently from replicas; jf_free is this case.
				tps = append(tps, tc.set.ParallelHetero)
			}
			for _, tp := range tps {
				name := tp.Name // e.g. "parallel-hetero jf8-3 4x100G"
				rng := rand.New(rand.NewSource(int64(planes)))
				instances = append(instances, instance{
					name: name + "/perm",
					g:    tp.G,
					cs:   workload.PermutationCommodities(tp, 100, rng),
				})
				rg, rcs := workload.RackAllToAll(tp, 10)
				instances = append(instances, instance{
					name: name + "/rack",
					g:    rg,
					cs:   rcs,
				})
			}
		}
	}
	for _, inst := range instances {
		for _, eps := range []float64{0.05, 0.10} {
			got := Free(inst.g, inst.cs, Options{Epsilon: eps})
			want := freeReference(inst.g, inst.cs, Options{Epsilon: eps})
			if got.Lambda != want.Lambda {
				t.Errorf("%s eps=%v: lambda %v != reference %v", inst.name, eps, got.Lambda, want.Lambda)
			}
			if got.TotalThroughput != want.TotalThroughput {
				t.Errorf("%s eps=%v: throughput %v != reference %v", inst.name, eps, got.TotalThroughput, want.TotalThroughput)
			}
			if got.Unrouted != want.Unrouted {
				t.Errorf("%s eps=%v: unrouted %d != reference %d", inst.name, eps, got.Unrouted, want.Unrouted)
			}
			if got.Stats.Phases != want.Stats.Phases ||
				got.Stats.Iterations != want.Stats.Iterations ||
				got.Stats.Attempts != want.Stats.Attempts {
				t.Errorf("%s eps=%v: trajectory (phases=%d iters=%d attempts=%d) != reference (phases=%d iters=%d attempts=%d)",
					inst.name, eps,
					got.Stats.Phases, got.Stats.Iterations, got.Stats.Attempts,
					want.Stats.Phases, want.Stats.Iterations, want.Stats.Attempts)
			}
		}
	}
}

// TestFreeRejectsDegenerateCommodity: a src==dst commodity has always
// counted as unrouted (the per-pair probe rejects the empty path); the
// per-source BFS probe must preserve that.
func TestFreeRejectsDegenerateCommodity(t *testing.T) {
	tp := topo.FatTreeSet(4, 2, 100).ParallelHomo
	cs := []route.Commodity{
		{Src: tp.Hosts[0], Dst: tp.Hosts[1], Demand: 1},
		{Src: tp.Hosts[2], Dst: tp.Hosts[2], Demand: 1},
	}
	r := Free(tp.G, cs, Options{})
	if r.Lambda != 0 || r.Unrouted != 1 {
		t.Fatalf("degenerate commodity: lambda=%v unrouted=%d, want 0 and 1", r.Lambda, r.Unrouted)
	}
}

// TestFreeOracleZeroAlloc: once the per-commodity link buffers and the
// shared scratch space have been grown, the Free oracle must not allocate
// — neither on a cache hit nor on a Dijkstra refresh. Doubling every
// length between calls forces the (1+ε) staleness check to fail, so the
// measured loop exercises the full refresh path (search + AppendPath into
// the recycled buffer).
func TestFreeOracleZeroAlloc(t *testing.T) {
	tp := topo.FatTreeSet(4, 2, 100).ParallelHomo
	fz := tp.G.Frozen()
	cs := []route.Commodity{
		{Src: tp.Hosts[0], Dst: tp.Hosts[7], Demand: 1},
		{Src: tp.Hosts[0], Dst: tp.Hosts[12], Demand: 1},
	}
	o := &freeOracle{fz: fz, cs: cs, eps: 0.1,
		scratch: graph.NewScratch(), cache: make([]freeCache, len(cs))}
	length := make([]float64, fz.NumLinks())
	for i := range length {
		length[i] = 1
	}
	warm := func(f func()) float64 {
		f() // grow buffers before measuring
		return testing.AllocsPerRun(100, f)
	}
	if avg := warm(func() {
		for i := range length {
			length[i] *= 2 // force a refresh on every consult
		}
		for j := range cs {
			if _, ok := o.paths(j, length); !ok {
				t.Fatal("oracle found no path")
			}
		}
	}); avg != 0 {
		t.Fatalf("refreshing oracle call allocates %v allocs/run, want 0", avg)
	}
	if avg := warm(func() {
		for j := range cs {
			if _, ok := o.paths(j, length); !ok {
				t.Fatal("oracle found no path")
			}
		}
	}); avg != 0 {
		t.Fatalf("cache-hit oracle call allocates %v allocs/run, want 0", avg)
	}
}

// refFixedPick is the nested-slice FixedPaths oracle the flat incidence
// replaced: scan commodity j's paths in order, keep the first strictly
// shortest, return it from the caller's [][]graph.Path.
func refFixedPick(paths [][]graph.Path) func(int, []float64) (graph.Path, bool) {
	return func(j int, length []float64) (graph.Path, bool) {
		best, bestLen := -1, math.Inf(1)
		for p, path := range paths[j] {
			var l float64
			for _, e := range path.Links {
				l += length[e]
			}
			if l < bestLen {
				best, bestLen = p, l
			}
		}
		return paths[j][best], true
	}
}

// TestFixedOracleMatchesScan: the flat CSR incidence must reproduce the
// naive nested-slice scan exactly, including first-minimum tie-breaking.
func TestFixedOracleMatchesScan(t *testing.T) {
	g, cs, paths := randomInstance(5)
	o, ref := newFixedOracle(paths), refFixedPick(paths)
	length := make([]float64, g.NumLinks())
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		for i := range length {
			// Coarse quantization manufactures exact float ties.
			length[i] = float64(1+rng.Intn(3)) * 0.25
		}
		for j := range cs {
			got, _ := o.pick(j, length)
			want, _ := ref(j, length)
			if !got.Equal(want) {
				t.Fatalf("trial %d commodity %d: pick chose %v, scan chose %v",
					trial, j, got.Links, want.Links)
			}
			// The links alias the flat incidence; an append by a caller
			// must not be able to overwrite the next path.
			if cap(got.Links) != len(got.Links) {
				t.Fatalf("trial %d commodity %d: returned links have cap %d > len %d",
					trial, j, cap(got.Links), len(got.Links))
			}
		}
	}
}

// TestFixedPathsMatchesReference: FixedPaths' flat oracle must leave the
// whole Garg–Könemann run where the nested-slice pick leaves it — λ,
// phases, iterations and rescaling attempts bit-identical — on fat tree
// and Jellyfish P-Nets, replicated and (Jellyfish only: replicated fat
// trees are identical) heterogeneous planes, across path-set sizes.
func TestFixedPathsMatchesReference(t *testing.T) {
	const planes = 4
	ft := topo.FatTreeSet(4, planes, 100)
	jf := topo.JellyfishSet(8, 3, 2, planes, 100, 42)
	for _, tp := range []*topo.Topology{ft.ParallelHomo, jf.ParallelHomo, jf.ParallelHetero} {
		cs := workload.PermutationCommodities(tp, 100, rand.New(rand.NewSource(3)))
		for _, k := range []int{1, 4, 8} {
			paths := route.KSPPaths(tp.G, cs, k)
			got := FixedPaths(tp.G, cs, paths, Options{})
			lambda, want := adaptiveGK(tp.G.Frozen(), cs, refFixedPick(paths), Options{}.epsilon())
			if got.Lambda != lambda || got.Stats.Phases != want.Phases ||
				got.Stats.Iterations != want.Iterations || got.Stats.Attempts != want.Attempts {
				t.Errorf("%s K=%d: (lambda=%v phases=%d iters=%d attempts=%d) != reference (lambda=%v phases=%d iters=%d attempts=%d)",
					tp.Name, k, got.Lambda, got.Stats.Phases, got.Stats.Iterations, got.Stats.Attempts,
					lambda, want.Phases, want.Iterations, want.Attempts)
			}
		}
	}
}

// TestFixedOracleZeroAlloc: a warm FixedPaths oracle call is a pure scan
// over the flat incidence and must not allocate.
func TestFixedOracleZeroAlloc(t *testing.T) {
	g, cs, paths := randomInstance(6)
	o := newFixedOracle(paths)
	length := make([]float64, g.NumLinks())
	for i := range length {
		length[i] = 1
	}
	if avg := testing.AllocsPerRun(100, func() {
		for j := range cs {
			o.pick(j, length)
		}
	}); avg != 0 {
		t.Fatalf("warm fixed oracle allocates %v allocs/run, want 0", avg)
	}
}
