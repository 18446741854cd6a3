package mcf

import (
	"math"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/route"
	"pnet/internal/topo"
)

// twoPathNet: host 0 and host 3 joined by two disjoint 2-switch paths of
// capacity 10 each.
func twoPathNet() (*graph.Graph, []route.Commodity, [][]graph.Path) {
	g := graph.New(4)
	g.SetTransit(0, false)
	g.SetTransit(3, false)
	g.AddDuplex(0, 1, 10, 0)
	g.AddDuplex(1, 3, 10, 0)
	g.AddDuplex(0, 2, 10, 0)
	g.AddDuplex(2, 3, 10, 0)
	cs := []route.Commodity{{Src: 0, Dst: 3, Demand: 10}}
	paths := route.AcrossPlanes(g, g.PlaneMasks(), cs, 4, nil)
	return g, cs, paths
}

func almost(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

func TestPinnedSingleLink(t *testing.T) {
	g := graph.New(2)
	g.SetTransit(0, false)
	g.SetTransit(1, false)
	// Direct host link is unusual but legal for the solver.
	g.AddLink(0, 1, 10, 0)
	cs := []route.Commodity{{Src: 0, Dst: 1, Demand: 10}}
	paths := [][]graph.Path{{{Links: []graph.LinkID{0}}}}
	r := Pinned(g, cs, paths)
	almost(t, "lambda", r.Lambda, 1, 1e-12)
	almost(t, "total", r.TotalThroughput, 10, 1e-12)
}

func TestPinnedSharedBottleneck(t *testing.T) {
	// Two commodities pinned to the same 10G link: λ = 0.5.
	g := graph.New(3)
	g.SetTransit(0, false)
	g.SetTransit(2, false)
	g.AddDuplex(0, 1, 10, 0)
	g.AddDuplex(1, 2, 10, 0)
	p := graph.KShortestPathsMasked(g, 0, 2, 1, nil)[0]
	cs := []route.Commodity{
		{Src: 0, Dst: 2, Demand: 10},
		{Src: 0, Dst: 2, Demand: 10},
	}
	r := Pinned(g, cs, [][]graph.Path{{p}, {p}})
	almost(t, "lambda", r.Lambda, 0.5, 1e-12)
}

func TestPinnedUnrouted(t *testing.T) {
	g := graph.New(2)
	cs := []route.Commodity{{Src: 0, Dst: 1, Demand: 1}}
	r := Pinned(g, cs, [][]graph.Path{nil})
	if r.Unrouted != 1 || r.Lambda != 0 {
		t.Errorf("r = %+v, want unrouted", r)
	}
}

func TestFixedPathsTwoDisjoint(t *testing.T) {
	g, cs, paths := twoPathNet()
	r := FixedPaths(g, cs, paths, Options{Epsilon: 0.03})
	// Both 10G paths usable: λ = 2 (20G for a 10G demand).
	almost(t, "lambda", r.Lambda, 2, 0.15)
}

func TestFixedPathsExactTwoDisjoint(t *testing.T) {
	g, cs, paths := twoPathNet()
	r, err := FixedPathsExact(g, cs, paths)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "lambda", r.Lambda, 2, 1e-9)
}

func TestGKMatchesSimplexOnFatTree(t *testing.T) {
	// Random permutation on a k=4 fat tree with 8-way KSP: compare GK
	// against the exact LP.
	set := topo.FatTreeSet(4, 2, 100)
	for _, tp := range []*topo.Topology{set.SerialLow, set.ParallelHomo} {
		perm := []int{5, 12, 0, 9, 14, 2, 7, 1}
		var cs []route.Commodity
		for i := 0; i+1 < len(perm); i += 2 {
			cs = append(cs, route.Commodity{
				Src: tp.Hosts[perm[i]], Dst: tp.Hosts[perm[i+1]], Demand: 100,
			})
		}
		paths := route.AcrossPlanes(tp.G, tp.G.PlaneMasks(), cs, 8, nil)
		exact, err := FixedPathsExact(tp.G, cs, paths)
		if err != nil {
			t.Fatalf("%s: %v", tp.Name, err)
		}
		approx := FixedPaths(tp.G, cs, paths, Options{Epsilon: 0.03})
		if approx.Lambda < exact.Lambda*0.90 || approx.Lambda > exact.Lambda*1.001 {
			t.Errorf("%s: GK λ=%v vs exact λ=%v", tp.Name, approx.Lambda, exact.Lambda)
		}
	}
}

func TestFixedPathsParallelDoublesSerial(t *testing.T) {
	// The headline P-Net property: with enough multipath, a 2-plane
	// parallel fat tree carries twice the permutation throughput of its
	// serial low-bandwidth plane.
	set := topo.FatTreeSet(4, 2, 100)
	perm := [][2]int{{0, 10}, {10, 5}, {5, 14}, {14, 3}, {3, 0}}
	mk := func(tp *topo.Topology) Result {
		var cs []route.Commodity
		for _, p := range perm {
			cs = append(cs, route.Commodity{Src: tp.Hosts[p[0]], Dst: tp.Hosts[p[1]], Demand: 100})
		}
		paths := route.AcrossPlanes(tp.G, tp.G.PlaneMasks(), cs, 16, nil)
		return FixedPaths(tp.G, cs, paths, Options{Epsilon: 0.05})
	}
	serial := mk(set.SerialLow)
	parallel := mk(set.ParallelHomo)
	ratio := parallel.Lambda / serial.Lambda
	if ratio < 1.7 || ratio > 2.2 {
		t.Errorf("parallel/serial = %v, want ~2 (serial λ=%v parallel λ=%v)",
			ratio, serial.Lambda, parallel.Lambda)
	}
}

func TestFreeSingleCommodity(t *testing.T) {
	g, cs, _ := twoPathNet()
	r := Free(g, cs, Options{Epsilon: 0.03})
	almost(t, "lambda", r.Lambda, 2, 0.15)
}

func TestFreeUnreachable(t *testing.T) {
	g := graph.New(2)
	g.SetTransit(0, false)
	g.SetTransit(1, false)
	r := Free(g, []route.Commodity{{Src: 0, Dst: 1, Demand: 1}}, Options{})
	if r.Unrouted != 1 || r.Lambda != 0 {
		t.Errorf("r = %+v", r)
	}
}

func TestFreeNoWorseThanFixed(t *testing.T) {
	set := topo.FatTreeSet(4, 1, 100)
	tp := set.SerialLow
	cs := []route.Commodity{
		{Src: tp.Hosts[0], Dst: tp.Hosts[15], Demand: 100},
		{Src: tp.Hosts[15], Dst: tp.Hosts[0], Demand: 100},
	}
	fixed := FixedPaths(tp.G, cs, route.AcrossPlanes(tp.G, tp.G.PlaneMasks(), cs, 8, nil), Options{Epsilon: 0.05})
	free := Free(tp.G, cs, Options{Epsilon: 0.05})
	if free.Lambda < fixed.Lambda*0.9 {
		t.Errorf("free λ=%v below fixed λ=%v", free.Lambda, fixed.Lambda)
	}
}

func TestSimplexBasics(t *testing.T) {
	// max x+y s.t. x ≤ 3, y ≤ 4, x+y ≤ 5.
	x, obj, err := simplexMax(
		[]float64{1, 1},
		[][]float64{{1, 0}, {0, 1}, {1, 1}},
		[]float64{3, 4, 5},
	)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "obj", obj, 5, 1e-9)
	almost(t, "x+y", x[0]+x[1], 5, 1e-9)
}

func TestSimplexUnbounded(t *testing.T) {
	_, _, err := simplexMax([]float64{1}, [][]float64{{-1}}, []float64{1})
	if err == nil {
		t.Fatal("no error for unbounded LP")
	}
}

func TestSimplexDegenerate(t *testing.T) {
	// b contains zeros (like our demand rows): must not cycle.
	x, obj, err := simplexMax(
		[]float64{1, 0, 0},
		[][]float64{{1, -1, 0}, {1, 0, -1}, {0, 1, 0}, {0, 0, 1}},
		[]float64{0, 0, 2, 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	almost(t, "obj", obj, 2, 1e-9)
	_ = x
}

func TestResultTotalThroughput(t *testing.T) {
	g, cs, paths := twoPathNet()
	r := FixedPaths(g, cs, paths, Options{Epsilon: 0.05})
	almost(t, "total", r.TotalThroughput, r.Lambda*10, 1e-9)
}

func TestSolverStatsPopulated(t *testing.T) {
	g, cs, paths := twoPathNet()
	r := FixedPaths(g, cs, paths, Options{Epsilon: 0.1})
	if r.Stats.Phases <= 0 || r.Stats.Iterations <= 0 || r.Stats.Attempts <= 0 {
		t.Errorf("FixedPaths stats = %+v", r.Stats)
	}
	rf := Free(g, cs, Options{Epsilon: 0.1})
	if rf.Stats.Phases <= 0 || rf.Stats.Iterations <= 0 || rf.Stats.Attempts <= 0 {
		t.Errorf("Free stats = %+v", rf.Stats)
	}
}
