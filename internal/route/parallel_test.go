package route

import (
	"testing"

	"pnet/internal/graph"
	"pnet/internal/par"
	"pnet/internal/topo"
)

// The fan-out in ECMPPaths and AcrossPlanes (per search, then per
// commodity) and the (first, last, plane) memo must never change results:
// serial and 8-wide runs have to agree path-for-path.

func equalPathSets(t *testing.T, what string, a, b [][]graph.Path) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d commodities", what, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s: commodity %d has %d vs %d paths", what, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if !a[i][j].Equal(b[i][j]) {
				t.Errorf("%s: commodity %d path %d differs", what, i, j)
			}
		}
	}
}

func TestRoutingWorkerInvariant(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	tp := set.ParallelHomo
	// Repeated (src,dst) pairs on purpose: they hit the search memo,
	// which must fan the shared result back to every duplicate.
	cs := commoditiesAmong(tp.Hosts, [][2]int{
		{0, 15}, {3, 12}, {5, 9}, {0, 15}, {3, 12}, {7, 8}, {0, 15},
	})

	run := func(workers int) (ecmp, ksp, seeded [][]graph.Path) {
		par.SetLimit(workers)
		defer par.SetLimit(0)
		ecmp = ECMPPaths(tp.G, cs, 7)
		ksp = KSPPaths(tp.G, cs, 8)
		seeded = KSPPathsSeeded(tp.G, cs, 8, 42)
		return
	}
	e1, k1, s1 := run(1)
	e8, k8, s8 := run(8)
	equalPathSets(t, "ECMPPaths", e1, e8)
	equalPathSets(t, "KSPPaths", k1, k8)
	equalPathSets(t, "KSPPathsSeeded", s1, s8)

	// The memo must hand duplicates the identical path set, and the
	// results must be real paths.
	equalPathSets(t, "memo duplicates", [][]graph.Path{k1[0], k1[1]}, [][]graph.Path{k1[3], k1[4]})
	for i, ps := range k1 {
		if len(ps) == 0 {
			t.Fatalf("KSP commodity %d found no paths", i)
		}
		for _, p := range ps {
			if !p.Valid(tp.G) {
				t.Fatalf("KSP commodity %d produced invalid path", i)
			}
		}
	}
}
