package topo

import (
	"strings"
	"testing"
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

func TestHostBandwidthScalesWithPlanes(t *testing.T) {
	for _, planes := range []int{1, 2, 8} {
		set := FatTreeSet(4, planes, 25)
		var tp *Topology
		if planes == 1 {
			tp = set.SerialLow
		} else {
			tp = set.ParallelHomo
		}
		if got := tp.HostBandwidth(); got != float64(planes)*25 {
			t.Errorf("planes=%d bandwidth = %v", planes, got)
		}
	}
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

func TestJellyfishPanicsOnBadConfig(t *testing.T) {
	cases := []struct{ sw, deg, hps int }{
		{1, 1, 1},   // too few switches
		{10, 0, 1},  // zero degree
		{10, 10, 1}, // degree >= switches
		{9, 3, 1},   // odd switch-degree product
	}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("JellyfishPlane(%d,%d,%d) did not panic", c.sw, c.deg, c.hps)
				}
			}()
			JellyfishPlane(c.sw, c.deg, c.hps, 1)
		}()
	}
}
