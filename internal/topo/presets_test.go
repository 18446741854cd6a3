package topo

import (
	"math/rand"
	"strings"
	"testing"

	"pnet/internal/graph"
)

// TestNetworkSetAll checks which members each set builds: a fat-tree
// set has no hetero member (replicated fat trees are identical), a
// Jellyfish set has all four.
func TestNetworkSetAll(t *testing.T) {
	ft := FatTreeSet(4, 2, 100)
	if ft.SerialLow == nil || ft.ParallelHomo == nil || ft.SerialHigh == nil || ft.ParallelHetero != nil {
		t.Errorf("fat tree set = %+v, want serial-low, parallel-homo, serial-high and no hetero", ft)
	}
	jf := JellyfishSet(12, 4, 2, 2, 100, 1)
	if jf.SerialLow == nil || jf.ParallelHomo == nil || jf.ParallelHetero == nil || jf.SerialHigh == nil {
		t.Errorf("jellyfish set = %+v, want all four members", jf)
	}
}

func TestNetworkSetNames(t *testing.T) {
	set := JellyfishSet(12, 4, 2, 4, 100, 1)
	cases := map[string]*Topology{
		"serial-low":      set.SerialLow,
		"parallel-homo":   set.ParallelHomo,
		"parallel-hetero": set.ParallelHetero,
		"serial-high":     set.SerialHigh,
	}
	for prefix, tp := range cases {
		if !strings.HasPrefix(tp.Name, prefix) {
			t.Errorf("name %q missing prefix %q", tp.Name, prefix)
		}
	}
	if !strings.Contains(set.SerialHigh.Name, "400G") {
		t.Errorf("serial high name %q should mention 400G", set.SerialHigh.Name)
	}
}

func TestSetsShareHostCount(t *testing.T) {
	set := JellyfishSet(12, 4, 2, 4, 100, 1)
	n := set.SerialLow.NumHosts()
	for _, tp := range []*Topology{set.ParallelHomo, set.ParallelHetero, set.SerialHigh} {
		if tp.NumHosts() != n {
			t.Errorf("%s has %d hosts, want %d", tp.Name, tp.NumHosts(), n)
		}
	}
}

func TestHomogeneousPlanesIdenticalWiring(t *testing.T) {
	set := JellyfishSet(10, 3, 2, 3, 100, 5)
	tp := set.ParallelHomo
	// Each plane must have the same number of inter-switch links.
	counts := make([]int, tp.Planes)
	for _, id := range tp.InterSwitchLinks() {
		counts[tp.G.Link(id).Plane]++
	}
	for p := 1; p < tp.Planes; p++ {
		if counts[p] != counts[0] {
			t.Errorf("plane %d has %d links, plane 0 has %d", p, counts[p], counts[0])
		}
	}
}

func TestPlaneSpecDegrees(t *testing.T) {
	p := JellyfishPlane(10, 4, 2, 3)
	deg := p.Degrees()
	if len(deg) != 10 {
		t.Fatalf("degrees len = %d", len(deg))
	}
	sum := 0
	for _, d := range deg {
		sum += d
	}
	if sum != 2*len(p.Edges) {
		t.Errorf("degree sum %d != 2x edges %d", sum, len(p.Edges))
	}
}

// TestHostBandwidthScalesWithPlanes: a host's uplinks add up to planes ×
// the link speed, the N-fold host bandwidth a P-Net buys.
func TestHostBandwidthScalesWithPlanes(t *testing.T) {
	for _, planes := range []int{1, 2, 8} {
		set := FatTreeSet(4, planes, 25)
		var tp *Topology
		if planes == 1 {
			tp = set.SerialLow
		} else {
			tp = set.ParallelHomo
		}
		for h, ups := range tp.Uplinks {
			sum := 0.0
			for _, id := range ups {
				sum += tp.G.Link(id).Capacity
			}
			if sum != float64(planes)*25 {
				t.Fatalf("planes=%d: host %d uplink bandwidth = %v", planes, h, sum)
			}
		}
	}
}

// TestPNetHostRedundancy is the §5.4 fault-tolerance claim: a host pair
// has one link-disjoint path per plane its hosts attach to, since a host
// has one uplink per plane and planes share no link, so a serial network
// has one. Every builder, N ∈ {1, 2, 4, 8} where it allows, on sampled
// host pairs.
func TestPNetHostRedundancy(t *testing.T) {
	var nets []*Topology
	for _, n := range []int{1, 2, 4, 8} {
		ft := FatTreeSet(4, n, 100)
		jf := JellyfishSet(16, 4, 2, n, 100, 1)
		nets = append(nets, ft.SerialLow, ft.ParallelHomo, ft.SerialHigh,
			jf.SerialLow, jf.ParallelHomo, jf.ParallelHetero, jf.SerialHigh)
		if n >= 2 {
			// k=8, as -exp mixed builds it: at k=4 an expander plane has
			// degree 2, a union of cycles that can leave hosts apart.
			nets = append(nets, MixedPNet(8, n, 100, 7))
		}
	}
	rng := rand.New(rand.NewSource(1))
	for _, tp := range nets {
		fz := tp.G.Frozen()
		for i := 0; i < 8; i++ {
			a := rng.Intn(tp.NumHosts())
			b := rng.Intn(tp.NumHosts() - 1)
			if b >= a {
				b++
			}
			src, dst := tp.Hosts[a], tp.Hosts[b]
			attached := map[int32]bool{}
			for _, id := range fz.OutLinks(src) {
				attached[tp.G.Link(id).Plane] = true
			}
			if len(attached) != tp.Planes {
				t.Fatalf("%s: host %d attaches to %d planes, want %d", tp.Name, src, len(attached), tp.Planes)
			}
			if got := graph.EdgeDisjointPaths(tp.G, src, dst, 0); got != len(attached) {
				t.Errorf("%s: hosts %d->%d: %d link-disjoint paths, want %d", tp.Name, src, dst, got, len(attached))
			}
		}
	}
}

// preconditionCase is a builder call that must panic with an error
// whose text contains every string in want: the offending value and
// the rule it breaks.
type preconditionCase struct {
	name  string
	build func()
	want  []string
}

// checkPreconditions runs each case, recovers its panic as an error and
// checks the error's text.
func checkPreconditions(t *testing.T, cases []preconditionCase) {
	t.Helper()
	for _, c := range cases {
		func() {
			defer func() {
				err, ok := recover().(error)
				if !ok {
					t.Errorf("%s: no panic with an error", c.name)
					return
				}
				for _, w := range c.want {
					if !strings.Contains(err.Error(), w) {
						t.Errorf("%s: %q does not mention %q", c.name, err, w)
					}
				}
			}()
			c.build()
		}()
	}
}

// TestBuilderPreconditions: a network-set builder given arguments it
// cannot build from panics with an error naming the offending value and
// the rule. The single-plane and mixed builders' cases are in
// TestFatTreePlaneInvalidArity, TestJellyfishPanicsOnBadConfig and
// TestMixedPNetNeedsTwoPlanes.
func TestBuilderPreconditions(t *testing.T) {
	checkPreconditions(t, []preconditionCase{
		{"FatTreeSet k=3", func() { FatTreeSet(3, 2, 100) }, []string{"k=3", "even and >= 4"}},
		{"FatTreeSet planes=0", func() { FatTreeSet(8, 0, 100) }, []string{"planes=0", "at least 1"}},
		{"JellyfishSet degree=7", func() { JellyfishSet(4, 7, 4, 4, 100, 1) }, []string{"degree=7", "[1, switches-1 = 3]"}},
		{"JellyfishSet hostsper=0", func() { JellyfishSet(24, 4, 0, 4, 100, 1) }, []string{"hostsper=0", "at least 1"}},
	})
}

func TestJellyfishPanicsOnBadConfig(t *testing.T) {
	checkPreconditions(t, []preconditionCase{
		{"JellyfishPlane switches=1", func() { JellyfishPlane(1, 1, 1, 1) }, []string{"switches=1", "at least 2"}},
		{"JellyfishPlane degree=0", func() { JellyfishPlane(10, 0, 1, 1) }, []string{"degree=0", "[1, switches-1 = 9]"}},
		{"JellyfishPlane degree=10", func() { JellyfishPlane(10, 10, 1, 1) }, []string{"degree=10", "[1, switches-1 = 9]"}},
		{"JellyfishPlane odd ports", func() { JellyfishPlane(9, 3, 1, 1) }, []string{"switches=9 x degree=3", "must be even"}},
	})
}

func TestPlaneOfSwitch(t *testing.T) {
	set := FatTreeSet(4, 2, 100)
	tp := set.ParallelHomo
	if got := tp.PlaneOfSwitch(tp.Hosts[0]); got != -1 {
		t.Errorf("host plane = %d, want -1", got)
	}
	if got := tp.PlaneOfSwitch(tp.SwitchBase[0]); got != 0 {
		t.Errorf("plane-0 switch reported plane %d", got)
	}
	if got := tp.PlaneOfSwitch(tp.SwitchBase[1]); got != 1 {
		t.Errorf("plane-1 switch reported plane %d", got)
	}
}

func TestScaledJellyfishShape(t *testing.T) {
	set := ScaledJellyfish(16, 2, 100, 1)
	if set.SerialLow.NumHosts() != 64 {
		t.Errorf("hosts = %d, want 64 (16 switches x 4)", set.SerialLow.NumHosts())
	}
	if set.SerialLow.NumRacks != 16 {
		t.Errorf("racks = %d", set.SerialLow.NumRacks)
	}
}
