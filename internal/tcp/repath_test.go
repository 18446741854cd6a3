package tcp

import (
	"testing"

	"pnet/internal/graph"
	"pnet/internal/sim"
)

// cutPath takes every link of a path (and its reverse) physically down.
func cutPath(net *sim.Network, p graph.Path, up bool) {
	for _, id := range p.Links {
		net.SetLinkUp(id, up)
		if rid, ok := net.G.ReverseLink(id); ok {
			net.SetLinkUp(rid, up)
		}
	}
}

func TestRepathMovesStalledSubflow(t *testing.T) {
	eng, net, paths := twoPlane(100)
	f, err := NewFlow(net, Config{}, paths[:1], 3000*1500) // single-path flow on plane 0
	if err != nil {
		t.Fatal(err)
	}
	var moved []graph.Path
	f.Repath = func(fl *Flow, i int) (graph.Path, bool) { return paths[1], true }
	f.OnRepath = func(fl *Flow, i int, to graph.Path) { moved = append(moved, to) }

	// Kill plane 0 mid-transfer (3000 packets ≈ 360 µs of wire time);
	// the flow must finish on plane 1.
	eng.At(50*sim.Microsecond, func() { cutPath(net, paths[0], false) })
	runFlow(t, eng, f)

	if f.Repaths != 1 {
		t.Errorf("Repaths = %d, want 1", f.Repaths)
	}
	if len(moved) != 1 || !moved[0].Equal(paths[1]) {
		t.Errorf("OnRepath saw %v, want the plane-1 path", moved)
	}
	if got := f.SubflowPath(0); !got.Equal(paths[1]) {
		t.Errorf("subflow path = %v after repath", got)
	}
	if net.TotalBlackholed() == 0 {
		t.Error("no packets blackholed by the cut")
	}
	// One stall timeout before the swap: rtoMin (10ms) plus the catch-up
	// on plane 1 ≈ 10.4ms. A second, backed-off timeout would add 20ms.
	if fct := f.FCT(); fct < rtoMin || fct > 2*rtoMin {
		t.Errorf("FCT = %v, want ~10.4ms (one stall + recovery)", fct)
	}
}

func TestRepathRejectsSamePath(t *testing.T) {
	eng, net, paths := twoPlane(100)
	f, err := NewFlow(net, Config{}, paths[:1], 1000*1500)
	if err != nil {
		t.Fatal(err)
	}
	queries := 0
	f.Repath = func(fl *Flow, i int) (graph.Path, bool) {
		queries++
		return paths[0], true // no alternative — a serial network's answer
	}
	eng.At(50*sim.Microsecond, func() { cutPath(net, paths[0], false) })
	eng.At(500*sim.Millisecond, func() { cutPath(net, paths[0], true) })
	f.Start()
	eng.RunUntil(5 * sim.Second)

	if !f.Done() {
		t.Fatal("flow did not finish after the fault cleared")
	}
	if f.Repaths != 0 {
		t.Errorf("Repaths = %d on a same-path answer", f.Repaths)
	}
	if queries == 0 {
		t.Error("Repath hook never consulted")
	}
}

// TestRepathDisabledByDefault: a flow without a Repath hook stays on its
// dead path, however many timeouts it takes.
func TestRepathDisabledByDefault(t *testing.T) {
	eng, net, paths := twoPlane(100)
	f, err := NewFlow(net, Config{}, paths[:1], 1000*1500)
	if err != nil {
		t.Fatal(err)
	}
	eng.At(50*sim.Microsecond, func() { cutPath(net, paths[0], false) })
	f.Start()
	eng.RunUntil(200 * sim.Millisecond)
	if f.Done() {
		t.Error("flow finished across a dead link without repathing")
	}
	if f.Repaths != 0 || !f.SubflowPath(0).Equal(paths[0]) {
		t.Errorf("hookless flow repathed %d times, now on %v", f.Repaths, f.SubflowPath(0))
	}
}

// TestRepathNoOpOnHealthyPath: a hooked flow whose paths never stall
// completes without consulting its hook. The flow is short enough that
// slow start overflows no queue, so no retransmission timer fires.
func TestRepathNoOpOnHealthyPath(t *testing.T) {
	eng, net, paths := twoPlane(100)
	f, err := NewFlow(net, Config{}, paths, 300*1500)
	if err != nil {
		t.Fatal(err)
	}
	f.Repath = func(fl *Flow, i int) (graph.Path, bool) {
		t.Errorf("Repath consulted for subflow %d on a healthy network", i)
		return graph.Path{}, false
	}
	runFlow(t, eng, f)
	if drops := net.TotalDrops(); drops != 0 {
		t.Fatalf("%d drops on the healthy path", drops)
	}
	if f.Repaths != 0 {
		t.Errorf("Repaths = %d on a healthy network", f.Repaths)
	}
}
