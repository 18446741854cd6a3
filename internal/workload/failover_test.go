package workload

import (
	"testing"

	"pnet/internal/chaos"
	"pnet/internal/core"
	"pnet/internal/sim"
	"pnet/internal/tcp"
	"pnet/internal/topo"
)

// TestDriverFailsOverThroughMidRunOutage is the end-to-end loop the
// chaos subsystem exists for: a physical plane outage is injected
// mid-flow, the health monitor detects it from probe silence, the
// stalled subflow repaths onto the surviving plane, and the flow
// completes — with every stage measured, none of it oracle-driven.
func TestDriverFailsOverThroughMidRunOutage(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	tp := set.ParallelHomo
	d := NewDriver(tp, sim.Config{}, tcp.Config{StallRTOs: 2})

	mon := core.NewHealthMonitor(d.Eng, d.Net, d.PNet, 0, 1, 0)
	var detected []core.PlaneEvent
	mon.OnChange = func(e core.PlaneEvent) { detected = append(detected, e) }
	mon.Start()

	faultAt := 500 * sim.Microsecond
	var sched chaos.Schedule
	sched.PlaneOutage(0, faultAt, 0)
	inj := chaos.NewInjector(d.Eng, d.Net, sched)
	inj.Arm()

	src, dst := tp.Hosts[2], tp.Hosts[13]
	f, err := d.StartFlow(src, dst, 30000*1500, Selection{Policy: KSP, K: 2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Eng.RunUntil(200 * sim.Millisecond)

	if !f.Done() {
		t.Fatalf("flow did not survive the outage (delivered %d of %d)",
			f.DeliveredPkts(), f.SizePkts)
	}
	if len(detected) == 0 || detected[0].Plane != 0 || detected[0].Up {
		t.Fatalf("monitor events = %v, want plane 0 down", detected)
	}
	if lat := detected[0].At - faultAt; lat <= 0 {
		t.Errorf("detection latency %v not positive", lat)
	}
	if d.Repaths == 0 {
		t.Error("no subflow repathed off the dead plane")
	}
	if d.Net.TotalBlackholed() == 0 {
		t.Error("outage blackholed nothing mid-flow")
	}
	// After failover every subflow must route over the surviving plane.
	for i := 0; i < f.Subflows(); i++ {
		if pl := f.SubflowPath(i).Plane(tp.G); pl != 1 {
			t.Errorf("subflow %d still on plane %d", i, pl)
		}
	}
}

// TestDriverRepathNoOpOnHealthyNet pins the guard rail: with repathing
// enabled but no fault, nothing moves.
func TestDriverRepathNoOpOnHealthyNet(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	d := NewDriver(set.ParallelHomo, sim.Config{}, tcp.Config{StallRTOs: 2})
	src, dst := set.ParallelHomo.Hosts[0], set.ParallelHomo.Hosts[15]
	f, err := d.StartFlow(src, dst, 1000*1500, Selection{Policy: KSP, K: 2}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	d.Eng.RunUntil(100 * sim.Millisecond)
	if !f.Done() {
		t.Fatal("flow did not complete")
	}
	if d.Repaths != 0 {
		t.Errorf("Repaths = %d on a healthy network", d.Repaths)
	}
}
