package core

import (
	"fmt"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/topo"
)

func TestPathsForFlowAfterPlaneFailure(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	p := New(set.ParallelHomo)
	src, dst := p.Topo.Hosts[0], p.Topo.Hosts[15]

	p.MarkPlaneDown(0)
	small := p.PathsForFlow(src, dst, 1<<20, 0)
	if len(small) != 1 || small[0].Plane(p.Topo.G) != 1 {
		t.Errorf("small flow after failure: %d paths on plane %d",
			len(small), small[0].Plane(p.Topo.G))
	}
	bulk := p.PathsForFlow(src, dst, 2<<30, 8)
	for _, q := range bulk {
		if q.Plane(p.Topo.G) != 1 {
			t.Fatal("bulk flow path on downed plane")
		}
	}
}

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
	p.MarkPlaneUp(0)
	if _, ok := p.LowLatencyPath(p.Topo.Hosts[0], p.Topo.Hosts[15]); !ok {
		t.Error("no path after restoring a plane")
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

// TestECMPPathInterned: the interned routes are the routes a fresh walk on
// a fresh DAG gives, link for link; equal routes share one backing array;
// a plane marked down leaves every route, and marked up, brings the
// original routes back.
func TestECMPPathInterned(t *testing.T) {
	p := New(topo.ScaledJellyfish(8, 2, 100, 3).ParallelHetero)
	g, hosts := p.Topo.G, p.Topo.Hosts
	const hashes = 64
	hash := func(h int) uint64 { return uint64(h+1) * 0x9e3779b97f4a7c15 }
	// each checks PNet's route against a fresh walk on a fresh DAG for
	// every host pair and hash, then hands it to fn.
	each := func(fn func(i, j, h int, got graph.Path)) {
		for j, dst := range hosts {
			dag := graph.ShortestDAG(g, dst)
			for i, src := range hosts {
				if i == j {
					continue
				}
				for h := 0; h < hashes; h++ {
					got, ok := p.ECMPPath(src, dst, hash(h))
					want, wok := graph.ECMPPath(dag, src, hash(h))
					if ok != wok || !got.Equal(want) {
						t.Fatalf("host %d -> %d, hash %d: interned %v (%v), walked %v (%v)",
							i, j, h, got.Links, ok, want.Links, wok)
					}
					fn(i, j, h, got)
				}
			}
		}
	}

	n := len(hosts)
	orig := make([]graph.Path, n*n*hashes)
	backing := map[string]*graph.LinkID{}
	each(func(i, j, h int, got graph.Path) {
		orig[(i*n+j)*hashes+h] = got
		key := fmt.Sprint(got.Links)
		if first, ok := backing[key]; !ok {
			backing[key] = &got.Links[0]
		} else if first != &got.Links[0] {
			t.Fatalf("host %d -> %d, hash %d: route %s has a second backing array", i, j, h, key)
		}
	})
	if len(backing) >= len(orig)/2 {
		t.Fatalf("%d distinct routes for %d flows: too few repeats to test sharing", len(backing), len(orig))
	}

	p.MarkPlaneDown(0)
	each(func(i, j, h int, got graph.Path) {
		for _, l := range got.Links {
			if g.Link(l).Plane == 0 {
				t.Fatalf("host %d -> %d, hash %d: route %v crosses downed plane 0", i, j, h, got.Links)
			}
		}
	})

	p.MarkPlaneUp(0)
	each(func(i, j, h int, got graph.Path) {
		if !got.Equal(orig[(i*n+j)*hashes+h]) {
			t.Fatalf("host %d -> %d, hash %d: after plane 0 came back, route %v, was %v",
				i, j, h, got.Links, orig[(i*n+j)*hashes+h].Links)
		}
	})
}
