package core

import (
	"fmt"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/topo"
)

func TestSetClassValidation(t *testing.T) {
	p := New(topo.FatTreeSet(4, 2, 100).ParallelHomo)
	if err := p.SetClass("a", []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetClass("bad", []int{2}); err == nil {
		t.Error("no error for out-of-range plane")
	}
	if p.Class("bad") != nil {
		t.Error("a rejected class was defined")
	}
	if got := p.Class("a").Planes(); got != 2 {
		t.Errorf("class a has %d planes", got)
	}
	if err := p.SetClass("a", nil); err == nil {
		t.Error("no error for an empty plane list")
	}
	if p.Class("a") == nil {
		t.Error("a rejected assignment removed the class")
	}
	if err := p.SetClass("dup", []int{1, 1}); err != nil {
		t.Fatal(err)
	}
	if got := p.Class("dup").Planes(); got != 1 {
		t.Errorf("class dup has %d planes, want its duplicate named once", got)
	}
}

func TestClassPathStaysInPlanes(t *testing.T) {
	set := topo.FatTreeSet(4, 4, 100)
	p := New(set.ParallelHomo)
	if err := p.SetClass("latency", []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	src, dst := p.Topo.Hosts[0], p.Topo.Hosts[15]
	planes := map[int32]bool{}
	for h := uint64(0); h < 32; h++ {
		path, ok := p.Class("latency").ECMPPath(src, dst, h)
		if !ok {
			t.Fatal("no class path")
		}
		pl := path.Plane(p.Topo.G)
		if pl != 2 && pl != 3 {
			t.Fatalf("class path on plane %d", pl)
		}
		planes[pl] = true
		for _, l := range path.Links {
			if q := p.Topo.G.Link(l).Plane; q != pl {
				t.Fatal("class path crosses planes")
			}
		}
	}
	if len(planes) != 2 {
		t.Errorf("hashing covered %d of 2 class planes", len(planes))
	}
}

func TestClassPathsConfined(t *testing.T) {
	set := topo.FatTreeSet(4, 4, 100)
	p := New(set.ParallelHomo)
	if err := p.SetClass("bulk", []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	src, dst := p.Topo.Hosts[0], p.Topo.Hosts[15]
	paths := p.Class("bulk").HighThroughputPaths(src, dst, 8)
	if len(paths) != 8 {
		t.Fatalf("got %d paths", len(paths))
	}
	seen := map[int32]bool{}
	for _, path := range paths {
		pl := path.Plane(p.Topo.G)
		if pl != 0 && pl != 1 {
			t.Fatalf("KSP class path on plane %d", pl)
		}
		seen[pl] = true
		if !path.Valid(p.Topo.G) {
			t.Fatal("invalid class path")
		}
	}
	if len(seen) != 2 {
		t.Errorf("class KSP used %d planes, want 2", len(seen))
	}
}

func TestClassLowLatencyPath(t *testing.T) {
	// Heterogeneous pair: plane 1 is shorter. A class excluding plane 1
	// must settle for the longer plane-0 path.
	p := New(heteroPair())
	if err := p.SetClass("slow", []int{0}); err != nil {
		t.Fatal(err)
	}
	path, ok := p.Class("slow").LowLatencyPath(0, 1)
	if !ok {
		t.Fatal("no path")
	}
	if path.Plane(p.Topo.G) != 0 || path.Len() != 4 {
		t.Errorf("path plane %d len %d, want plane 0 len 4", path.Plane(p.Topo.G), path.Len())
	}
}

func TestClassPathUndefinedClass(t *testing.T) {
	p := New(topo.FatTreeSet(4, 2, 100).ParallelHomo)
	if p.Class("nope") != nil {
		t.Error("undefined class has a selector")
	}
}

func TestOverlappingClasses(t *testing.T) {
	set := topo.FatTreeSet(4, 4, 100)
	p := New(set.ParallelHomo)
	if err := p.SetClass("a", []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if err := p.SetClass("b", []int{2, 3}); err != nil {
		t.Fatal(err)
	}
	src, dst := p.Topo.Hosts[0], p.Topo.Hosts[15]
	for h := uint64(0); h < 16; h++ {
		pa, _ := p.Class("a").ECMPPath(src, dst, h)
		pb, _ := p.Class("b").ECMPPath(src, dst, h)
		if pl := pa.Plane(p.Topo.G); pl > 2 {
			t.Errorf("class a path on plane %d", pl)
		}
		if pl := pb.Plane(p.Topo.G); pl < 2 {
			t.Errorf("class b path on plane %d", pl)
		}
	}
}

// TestEveryPlaneClassMatchesPNet: a class naming every plane is no
// restriction, so its Selector must pick exactly the paths the PNet
// picks, under every policy.
func TestEveryPlaneClassMatchesPNet(t *testing.T) {
	for _, tc := range []struct {
		name string
		tp   *topo.Topology
	}{
		{"homogeneous", topo.FatTreeSet(4, 2, 100).ParallelHomo},
		{"heterogeneous", topo.ScaledJellyfish(8, 2, 100, 3).ParallelHetero},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := New(tc.tp)
			every := make([]int, tc.tp.Planes)
			for pl := range every {
				every[pl] = len(every) - 1 - pl
			}
			if err := p.SetClass("all", every); err != nil {
				t.Fatal(err)
			}
			c := p.Class("all")
			same := func(what string, got, want []graph.Path) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s: class has %d paths, PNet %d", what, len(got), len(want))
				}
				for i := range got {
					if !got[i].Equal(want[i]) {
						t.Fatalf("%s: class path %d is %v, PNet's %v", what, i, got[i].Links, want[i].Links)
					}
				}
			}
			hosts := tc.tp.Hosts
			for _, pair := range [][2]int{{0, len(hosts) - 1}, {1, len(hosts) / 2}, {len(hosts) - 1, 2}} {
				src, dst := hosts[pair[0]], hosts[pair[1]]
				what := fmt.Sprintf("%d->%d", src, dst)
				got, gok := c.LowLatencyPath(src, dst)
				want, wok := p.LowLatencyPath(src, dst)
				if gok != wok {
					t.Fatalf("%s shortest: class ok %v, PNet ok %v", what, gok, wok)
				}
				same(what+" shortest", []graph.Path{got}, []graph.Path{want})
				k := SubflowsFor(p.Planes())
				same(what+" KSP", c.HighThroughputPaths(src, dst, k), p.HighThroughputPaths(src, dst, k))
				for h := uint64(0); h < 64; h++ {
					hash := (h + 1) * 0x9e3779b97f4a7c15
					got, gok := c.ECMPPath(src, dst, hash)
					want, wok := p.ECMPPath(src, dst, hash)
					if gok != wok {
						t.Fatalf("%s ECMP hash %d: class ok %v, PNet ok %v", what, h, gok, wok)
					}
					same(fmt.Sprintf("%s ECMP hash %d", what, h), []graph.Path{got}, []graph.Path{want})
				}
			}
		})
	}
}

// TestClassECMPHashesPerHop: class ECMP is ECMP. Inside a one-plane class
// the flows of one cross-pod host pair must spread over the plane's
// equal-cost paths, not all follow one.
func TestClassECMPHashesPerHop(t *testing.T) {
	p := New(topo.FatTreeSet(4, 2, 100).ParallelHomo)
	if err := p.SetClass("one", []int{1}); err != nil {
		t.Fatal(err)
	}
	src, dst := p.Topo.Hosts[0], p.Topo.Hosts[len(p.Topo.Hosts)-1]
	paths := map[string]bool{}
	for h := uint64(0); h < 64; h++ {
		path, ok := p.Class("one").ECMPPath(src, dst, (h+1)*0x9e3779b97f4a7c15)
		if !ok {
			t.Fatal("no class path")
		}
		if pl := path.Plane(p.Topo.G); pl != 1 {
			t.Fatalf("class path on plane %d", pl)
		}
		paths[fmt.Sprint(path.Links)] = true
	}
	if len(paths) < 2 {
		t.Errorf("64 flows of one cross-pod pair took %d distinct paths, want at least 2", len(paths))
	}
}
