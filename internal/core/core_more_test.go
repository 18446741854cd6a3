package core

import (
	"slices"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/topo"
)

func TestECMPCacheInvalidatedByFailure(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	p := New(set.ParallelHomo)
	src, dst := p.Topo.Hosts[0], p.Topo.Hosts[15]

	// Prime the DAG cache, then fail the plane the hashed path used.
	path, ok := p.ECMPPath(src, dst, 3)
	if !ok {
		t.Fatal("no path")
	}
	used := int(path.Plane(p.Topo.G))
	p.MarkPlaneDown(used)
	for h := uint64(0); h < 16; h++ {
		q, ok := p.ECMPPath(src, dst, h)
		if !ok {
			t.Fatal("no ECMP path after plane failure")
		}
		if int(q.Plane(p.Topo.G)) == used {
			t.Fatal("ECMP path still uses downed plane (stale cache)")
		}
	}
}

func TestHighThroughputPathsKExceedsDiversity(t *testing.T) {
	// Asking for more paths than exist returns what exists, without
	// duplicates.
	set := topo.FatTreeSet(4, 1, 100)
	p := New(set.SerialLow)
	// Same-rack pair: k=4 fat tree edge switch reaches the peer in 2
	// hops; path diversity beyond the shared ToR requires longer routes.
	ps := p.HighThroughputPaths(p.Topo.Hosts[0], p.Topo.Hosts[1], 64)
	if len(ps) == 0 {
		t.Fatal("no paths")
	}
	seen := map[string]bool{}
	for _, q := range ps {
		key := ""
		for _, l := range q.Links {
			key += string(rune(l)) + ","
		}
		if seen[key] {
			t.Fatal("duplicate path returned")
		}
		seen[key] = true
		if !q.Valid(p.Topo.G) {
			t.Fatal("invalid path")
		}
	}
}

func TestLowLatencyUnreachable(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	p := New(set.ParallelHomo)
	p.MarkPlaneDown(0)
	p.MarkPlaneDown(1)
	if _, ok := p.LowLatencyPath(p.Topo.Hosts[0], p.Topo.Hosts[15]); ok {
		t.Error("found path with all planes down")
	}
}

func TestSetPlaneOutOfRangePanics(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	p := New(set.ParallelHomo)
	defer func() {
		if recover() == nil {
			t.Error("no panic for out-of-range plane")
		}
	}()
	p.MarkPlaneDown(5)
}

func TestPlanesAccessor(t *testing.T) {
	set := topo.FatTreeSet(4, 8, 100)
	if got := New(set.ParallelHomo).Planes(); got != 8 {
		t.Errorf("planes = %d", got)
	}
}

// TestECMPPathMatchesWalk: a Selector's ECMP routes are the routes a
// fresh walk on a fresh DAG gives, link for link, and a plane marked down
// leaves every route.
func TestECMPPathMatchesWalk(t *testing.T) {
	p := New(topo.ScaledJellyfish(8, 2, 100, 3).ParallelHetero)
	g, hosts := p.Topo.G, p.Topo.Hosts
	const hashes = 64
	hash := func(h int) uint64 { return uint64(h+1) * 0x9e3779b97f4a7c15 }
	// each checks PNet's route against a fresh walk on a fresh DAG for
	// every host pair and hash, then hands a copy of it to fn.
	each := func(fn func(i, j, h int, got graph.Path)) {
		for j, dst := range hosts {
			dag := graph.ShortestDAG(g, dst, nil)
			for i, src := range hosts {
				if i == j {
					continue
				}
				for h := 0; h < hashes; h++ {
					got, ok := p.ECMPPath(src, dst, hash(h))
					got.Links = slices.Clone(got.Links)
					want, wok := graph.ECMPPath(dag, src, hash(h))
					if ok != wok || !got.Equal(want) {
						t.Fatalf("host %d -> %d, hash %d: selector %v (%v), walked %v (%v)",
							i, j, h, got.Links, ok, want.Links, wok)
					}
					fn(i, j, h, got)
				}
			}
		}
	}
	each(func(int, int, int, graph.Path) {})

	p.MarkPlaneDown(0)
	each(func(i, j, h int, got graph.Path) {
		for _, l := range got.Links {
			if g.Link(l).Plane == 0 {
				t.Fatalf("host %d -> %d, hash %d: route %v crosses downed plane 0", i, j, h, got.Links)
			}
		}
	})
}
