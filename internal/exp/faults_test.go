package exp

import (
	"testing"

	"pnet/internal/chaos"
	"pnet/internal/obs"
	"pnet/internal/par"
	"pnet/internal/report"
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

// TestFaultsChaosSpecOverride drives the experiment through a parsed
// -chaos script instead of the built-in outage, including a transient
// fault that clears mid-run.
func TestFaultsChaosSpecOverride(t *testing.T) {
	spec, err := chaos.ParseSpec("plane:0@4ms+10ms")
	if err != nil {
		t.Fatal(err)
	}
	tp := topo.FatTreeSet(4, 2, 40).ParallelHomo
	m := runFaultsWith(Params{Seed: 1, Chaos: spec}, tp, faultsTestCfg())
	if m.blackholed == 0 {
		t.Error("scripted outage blackholed nothing")
	}
	// Latency accounting anchors at the script's injection time (4ms),
	// not the default 6ms: detection is a few probe intervals, far less
	// than the 2ms anchor error would be.
	if m.detectLat <= 0 || m.detectLat > sim.Millisecond {
		t.Errorf("detect latency = %v, want ~3 probe intervals from the 4ms injection", m.detectLat)
	}
}

// TestFaultsRecordsTelemetry checks the experiment's fault lifecycle
// reaches the collector's sink: inject from the injector, detect/failover/
// recover from the measurements.
func TestFaultsRecordsTelemetry(t *testing.T) {
	c, rec := obs.NewCollector(), &report.Stream{}
	c.Sink = rec
	tp := topo.FatTreeSet(4, 2, 40).ParallelHomo
	runFaultsWith(Params{Seed: 1, Obs: c}, tp, faultsTestCfg())
	events := map[string]int{}
	for _, f := range rec.Faults {
		events[f.Event]++
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
		c, rec := obs.NewCollector(), &report.Stream{}
		c.Sink = rec
		unrelated := sim.NewEngine()
		c.AttachNetwork(unrelated, sim.NewNetwork(unrelated, topo.FatTreeSet(4, 1, 40).SerialLow.G, sim.Config{}))
		e.Run(Params{Seed: 1, Obs: c})
		par.SetLimit(0)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		own := map[int]bool{}
		for _, r := range rec.Engines {
			own[r.Net] = r.Net != 0
		}
		if len(own) != 4 {
			t.Fatalf("workers=%d: %d engines sampled, want the unrelated one and faults' three", workers, len(own))
		}
		events := map[string]int{}
		for _, r := range rec.Faults {
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
		names[r[0]] = true
	}
	for _, want := range []string{"serial", "parallel homogeneous", "parallel heterogeneous"} {
		if !names[want] {
			t.Errorf("missing network %q", want)
		}
	}
}
