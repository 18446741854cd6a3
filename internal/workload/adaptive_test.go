package workload

import (
	"testing"

	"pnet/internal/graph"
	"pnet/internal/sim"
	"pnet/internal/tcp"
	"pnet/internal/topo"
)

// planePath returns a single path confined to the given plane.
func planePath(t *testing.T, d *Driver, plane int, src, dst graph.NodeID) []graph.Path {
	t.Helper()
	if err := d.PNet.SetClass("_test", []int{plane}); err != nil {
		t.Fatal(err)
	}
	p, ok := d.PNet.ClassPath("_test", src, dst, 0)
	if !ok {
		t.Fatalf("no path on plane %d", plane)
	}
	return []graph.Path{p}
}

func TestAdaptiveAvoidsLoadedPlane(t *testing.T) {
	// Two-plane fat tree: saturate plane 0 with a long flow, then ask
	// the adaptive selector for a path — it must pick plane 1.
	set := topo.FatTreeSet(4, 2, 100)
	tp := set.ParallelHomo
	d := newTestDriver(t, tp)
	sel := NewAdaptiveSelector(d, 8)

	bg := planePath(t, d, 0, tp.Hosts[0], tp.Hosts[12])
	if _, err := d.StartFlowOnPaths(bg, 20_000_000, nil, nil); err != nil {
		t.Fatal(err)
	}
	// Let load accumulate, then decide.
	d.Eng.RunUntil(200 * sim.Microsecond)
	path, err := sel.Pick(tp.Hosts[0], tp.Hosts[12])
	if err != nil {
		t.Fatal(err)
	}
	if path.Plane(tp.G) != 1 {
		t.Errorf("adaptive picked loaded plane %d, want 1", path.Plane(tp.G))
	}
}

func TestStartFlowAdaptiveCompletes(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	tp := set.ParallelHomo
	d := newTestDriver(t, tp)
	sel := NewAdaptiveSelector(d, 4)
	done := 0
	for i := 0; i < 4; i++ {
		if _, err := sel.StartFlowAdaptive(tp.Hosts[i], tp.Hosts[15-i], 150_000,
			nil, func(*tcp.Flow) { done++ }); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.MustRunUntil(sim.Second, 4); err != nil {
		t.Fatal(err)
	}
	if done != 4 {
		t.Errorf("done = %d", done)
	}
}

func TestAdaptiveSpreadsConcurrentFlows(t *testing.T) {
	// Starting several flows between the same pair back-to-back (with
	// load observed between decisions) should use more than one plane.
	set := topo.FatTreeSet(4, 4, 100)
	tp := set.ParallelHomo
	d := newTestDriver(t, tp)
	sel := NewAdaptiveSelector(d, 8)
	planes := map[int32]bool{}
	for i := 0; i < 4; i++ {
		path, err := sel.Pick(tp.Hosts[0], tp.Hosts[15])
		if err != nil {
			t.Fatal(err)
		}
		planes[path.Plane(tp.G)] = true
		if _, err := d.StartFlowOnPaths([]graph.Path{path}, 1_000_000, nil, nil); err != nil {
			t.Fatal(err)
		}
		d.Eng.RunUntil(d.Eng.Now() + 50*sim.Microsecond)
	}
	if len(planes) < 2 {
		t.Errorf("adaptive used %d planes for 4 sequential flows, want >= 2", len(planes))
	}
}

func TestAdaptivePickNoPath(t *testing.T) {
	// Disconnected pair (all planes down for dst's uplinks).
	set := topo.FatTreeSet(4, 2, 100)
	tp := set.ParallelHomo
	d := newTestDriver(t, tp)
	for p := 0; p < tp.Planes; p++ {
		tp.G.SetLinkUp(tp.Uplinks[15][p], false)
		tp.G.SetLinkUp(tp.Downlinks[15][p], false)
	}
	sel := NewAdaptiveSelector(d, 4)
	if _, err := sel.Pick(tp.Hosts[0], tp.Hosts[15]); err == nil {
		t.Error("no error for unreachable destination")
	}
}
