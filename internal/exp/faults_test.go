package exp

import (
	"bytes"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/obs"
	"pnet/internal/par"
	"pnet/internal/sim"
	"pnet/internal/topo"
)

// faultsTestCfg is the small-scale sizing used by runFaults, reused here
// so the acceptance numbers match what `pnetbench -exp faults` prints.
func faultsTestCfg() faultsCfg {
	return faultsCfg{
		faultAt: 6 * sim.Millisecond,
		runDur:  30 * sim.Millisecond,
		window:  sim.Millisecond,
		flows:   4,
	}
}

// TestFaultsAcceptance pins the ISSUE acceptance scenario on the
// homogeneous P-Net: a plane outage at t=T blackholes packets, the
// monitor detects it with positive latency, and goodput on the surviving
// plane recovers to at least 90% of the pre-fault level.
func TestFaultsAcceptance(t *testing.T) {
	tp := topo.FatTreeSet(4, 2, 40).ParallelHomo
	m := runFaultsWith(Params{Seed: 1}, tp, faultsTestCfg())

	if m.blackholed == 0 {
		t.Error("outage blackholed no packets")
	}
	if m.detectLat <= 0 {
		t.Errorf("detection latency = %v, want positive", m.detectLat)
	}
	if m.failoverLat <= 0 {
		t.Errorf("failover latency = %v, want positive", m.failoverLat)
	}
	if m.recovery < 0 {
		t.Fatal("goodput never recovered on the surviving plane")
	}
	if m.postFrac < 0.9 {
		t.Errorf("post-recovery goodput = %.0f%% of pre-fault, want >= 90%%", m.postFrac*100)
	}
	if m.dipFrac < 0.25 {
		t.Errorf("dip = %.0f%%, want a visible outage (>= 25%%)", m.dipFrac*100)
	}

	// The outage downs every link of plane 0 and no other link.
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, tp.G, sim.Config{})
	downPlane0(net)
	for id := range tp.G.NumLinks() {
		l := tp.G.Link(graph.LinkID(id))
		if up := net.LinkUp(graph.LinkID(id)); up == (l.Plane == 0) {
			t.Errorf("link %d (plane %d): up=%v after the plane-0 outage", id, l.Plane, up)
		}
	}
}

// TestFaultsSerialNeverRecovers pins the contrast the experiment exists
// to show: the serial baseline has no surviving plane.
func TestFaultsSerialNeverRecovers(t *testing.T) {
	tp := topo.FatTreeSet(4, 2, 40).SerialLow
	m := runFaultsWith(Params{Seed: 1}, tp, faultsTestCfg())
	if m.recovery >= 0 {
		t.Errorf("serial network recovered in %v with no plane to fail over to", m.recovery)
	}
	if m.dipFrac < 0.99 {
		t.Errorf("serial dip = %.0f%%, want total loss", m.dipFrac*100)
	}
	if m.detectLat <= 0 {
		t.Error("even a serial network should detect the outage")
	}
	if m.failoverLat >= 0 {
		t.Errorf("serial network failed over in %v with no surviving plane", m.failoverLat)
	}
}

// TestFaultsDeterministic runs the same configuration twice: every
// measured quantity must be bit-identical for a fixed seed.
func TestFaultsDeterministic(t *testing.T) {
	// A fresh topology per run: the health monitor's MarkPlaneDown is
	// deliberately sticky on the graph, so reusing one would leak the
	// first run's verdict into the second.
	a := runFaultsWith(Params{Seed: 7}, topo.FatTreeSet(4, 2, 40).ParallelHomo, faultsTestCfg())
	b := runFaultsWith(Params{Seed: 7}, topo.FatTreeSet(4, 2, 40).ParallelHomo, faultsTestCfg())
	if a != b {
		t.Errorf("same-seed runs differ:\n  %+v\n  %+v", a, b)
	}
}

// TestFaultsRecordsTelemetry checks the experiment's fault lifecycle
// reaches the collector's sink: inject from the outage (checked field for
// field), detect/failover/recover from the measurements, and failover
// onto plane 1, the one plane that survives.
func TestFaultsRecordsTelemetry(t *testing.T) {
	var mbuf bytes.Buffer
	c := obs.NewCollector()
	c.StreamMetrics(&mbuf)
	tp := topo.FatTreeSet(4, 2, 40).ParallelHomo
	runFaultsWith(Params{Seed: 1, Obs: c}, tp, faultsTestCfg())
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	events := map[string]int{}
	inject := obs.FaultRecord{Type: obs.KindFault, TPs: int64(faultsTestCfg().faultAt), Event: "inject", Target: "plane:0"}
	for _, f := range records[obs.FaultRecord](t, &mbuf, obs.KindFault) {
		events[f.Event]++
		if f.Event == "inject" && f != inject {
			t.Errorf("inject record = %+v, want %+v", f, inject)
		}
		if f.Event == "failover" && (f.Target != "plane:1" || f.Plane != 1 || f.LatencySec <= 0) {
			t.Errorf("failover record = %+v, want plane 1 and a positive latency", f)
		}
	}
	for _, want := range []string{"inject", "detect", "failover", "recover"} {
		if events[want] == 0 {
			t.Errorf("no %q fault record; got %v", want, events)
		}
	}
}

// TestFaultNetIsEngineNet: a fault record names the engine it happened
// on, by the NetID the collector attached that engine under — the number
// every other record of the engine carries. An unrelated network attaches
// first, as one does under `pnetbench -exp all`, so faults' engines are
// nets 1 to 3; a record numbered by the experiment's own cell index (0 to
// 2, as it once was) lands one on the unrelated network. Serially and with
// the cells racing for NetIDs.
func TestFaultNetIsEngineNet(t *testing.T) {
	e, _ := ByID("faults")
	for _, workers := range []int{1, 2} {
		par.SetLimit(workers)
		var mbuf bytes.Buffer
		c := obs.NewCollector()
		c.StreamMetrics(&mbuf)
		unrelated := sim.NewEngine()
		c.AttachNetwork(unrelated, sim.NewNetwork(unrelated, topo.FatTreeSet(4, 1, 40).SerialLow.G, sim.Config{}))
		e.Run(Params{Seed: 1, Obs: c})
		par.SetLimit(0)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		own := map[int]bool{}
		for _, r := range records[obs.EngineRecord](t, &mbuf, obs.KindEngine) {
			own[r.Net] = r.Net != 0
		}
		if len(own) != 4 {
			t.Fatalf("workers=%d: %d engines sampled, want the unrelated one and faults' three", workers, len(own))
		}
		events := map[string]int{}
		for _, r := range records[obs.FaultRecord](t, &mbuf, obs.KindFault) {
			events[r.Event]++
			if !own[r.Net] {
				t.Errorf("workers=%d: %s record on net %d, which is not one of faults' engines: %+v", workers, r.Event, r.Net, r)
			}
		}
		for _, want := range []string{"inject", "detect", "failover", "recover"} {
			if events[want] == 0 {
				t.Errorf("workers=%d: no %q fault record; got %v", workers, want, events)
			}
		}
	}
}

// TestFaultsTable checks the registered experiment's shape without
// re-running the packet sims at full small-scale size: three networks,
// eight measured columns.
func TestFaultsTable(t *testing.T) {
	if testing.Short() {
		t.Skip("full small-scale faults table in -short mode")
	}
	e, ok := ByID("faults")
	if !ok {
		t.Fatal("faults experiment not registered")
	}
	tab := e.Run(Params{Seed: 1})
	if len(tab.Rows) != 3 {
		t.Fatalf("rows = %d, want serial + homo + hetero", len(tab.Rows))
	}
	if len(tab.Header) != 8 {
		t.Fatalf("header = %v", tab.Header)
	}
	names := map[string]bool{}
	for _, r := range tab.Rows {
		names[r[0].String()] = true
	}
	for _, want := range []string{"serial", "parallel homogeneous", "parallel heterogeneous"} {
		if !names[want] {
			t.Errorf("missing network %q", want)
		}
	}
}
