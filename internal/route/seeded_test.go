package route

import (
	"math/rand"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/topo"
)

func TestKSPPathsSeededDeterministic(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	tp := set.ParallelHomo
	cs := commoditiesAmong(tp.Hosts, [][2]int{{0, 15}, {3, 9}})
	a := KSPPathsSeeded(tp.G, cs, 8, 7)
	b := KSPPathsSeeded(tp.G, cs, 8, 7)
	for i := range cs {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("commodity %d: %d vs %d paths", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if !a[i][j].Equal(b[i][j]) {
				t.Fatalf("commodity %d path %d differs between runs", i, j)
			}
		}
	}
}

func TestKSPPathsSeededVariesPerCommodity(t *testing.T) {
	// Two commodities between the SAME endpoints should get differently
	// ordered tie groups — the decorrelation that fixes deterministic
	// Yen's collision pile-ups.
	set := topo.FatTreeSet(8, 1, 100)
	tp := set.SerialLow
	cs := []Commodity{
		{Src: tp.Hosts[0], Dst: tp.Hosts[127], Demand: 1},
		{Src: tp.Hosts[0], Dst: tp.Hosts[127], Demand: 1},
		{Src: tp.Hosts[0], Dst: tp.Hosts[127], Demand: 1},
	}
	paths := KSPPathsSeeded(tp.G, cs, 4, 3)
	distinct := false
	for i := 1; i < len(paths); i++ {
		for j := range paths[i] {
			if !paths[i][j].Equal(paths[0][j]) {
				distinct = true
			}
		}
	}
	if !distinct {
		t.Error("seeded KSP produced identical path orders for all commodities")
	}
}

func TestKSPPathsSeededStillSorted(t *testing.T) {
	set := topo.JellyfishSet(12, 4, 2, 2, 100, 5)
	tp := set.ParallelHetero
	cs := commoditiesAmong(tp.Hosts, [][2]int{{0, 23}})
	paths := KSPPathsSeeded(tp.G, cs, 10, 11)[0]
	for i := 1; i < len(paths); i++ {
		if paths[i].Len() < paths[i-1].Len() {
			t.Fatalf("seeded KSP broke length order at %d", i)
		}
	}
	for _, p := range paths {
		if !p.Valid(tp.G) {
			t.Fatal("invalid seeded path")
		}
	}
}

func TestShuffleTiesPreservesGroups(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	tp := set.ParallelHomo
	cs := commoditiesAmong(tp.Hosts, [][2]int{{0, 15}})
	paths := KSPPaths(tp.G, cs, 8)[0]
	lens := make([]int, len(paths))
	for i, p := range paths {
		lens[i] = p.Len()
	}
	shuffleTies(paths, rand.New(rand.NewSource(2)))
	for i, p := range paths {
		if p.Len() != lens[i] {
			t.Fatalf("shuffle moved a path across length groups at %d", i)
		}
	}
	// All paths still present (by key set).
	seen := map[string]bool{}
	for _, p := range paths {
		seen[pathKey(p)] = true
	}
	if len(seen) != len(paths) {
		t.Error("shuffle lost or duplicated paths")
	}
}

func pathKey(p graph.Path) string {
	b := make([]byte, 0, 4*len(p.Links))
	for _, l := range p.Links {
		b = append(b, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
	}
	return string(b)
}
