package exp

import (
	"fmt"
	"math"

	"pnet/internal/core"
	"pnet/internal/graph"
	"pnet/internal/obs"
	"pnet/internal/par"
	"pnet/internal/sim"
	"pnet/internal/tcp"
	"pnet/internal/topo"
)

func init() {
	register("faults", "Extension (§3.4): runtime plane outage — detection, failover, recovery", runFaults)
}

// faultsCfg sizes one faults run. The registered experiment derives it
// from the scale; tests shrink it further through runFaultsWith.
type faultsCfg struct {
	faultAt sim.Time // plane-0 outage injection time
	runDur  sim.Time
	window  sim.Time // goodput timeline bucket
	flows   int
}

// faultsMetrics is one network's measured ride through the outage.
type faultsMetrics struct {
	preBps      float64  // goodput before the fault
	dipFrac     float64  // deepest relative goodput loss after it
	detectLat   sim.Time // injection → monitor verdict (-1: never detected)
	failoverLat sim.Time // verdict → first subflow repath (-1: never)
	recovery    sim.Time // injection → goodput back at ≥90% of preBps (-1: never)
	postFrac    float64  // goodput over the final windows, relative to preBps
	blackholed  int64
}

func (m faultsMetrics) row(name string) []Cell {
	return []Cell{
		label(name),
		num(m.preBps/1e9, "%.1f"),
		num(m.dipFrac*100, "%.0f%%"),
		lat(m.detectLat),
		lat(m.failoverLat),
		lat(m.recovery),
		num(m.postFrac*100, "%.0f%%"),
		count(m.blackholed),
	}
}

// lat is a latency cell, "-" for a phase that never came.
func lat(t sim.Time) Cell {
	if t < 0 {
		return label("-")
	}
	return secs(t.Seconds())
}

// runFaults rides the paper's network types through the same mid-run
// dataplane outage. The serial baseline has nowhere to fail over to and
// never recovers; the parallel P-Nets detect the outage from probe
// silence (no oracle), repath the stalled flows onto surviving planes,
// and return to their pre-fault goodput — the §3.4 fault tolerance
// argument made measurable.
func runFaults(p Params) Table {
	cfg := faultsCfg{
		faultAt: 6 * sim.Millisecond,
		runDur:  30 * sim.Millisecond,
		window:  sim.Millisecond,
		flows:   4,
	}
	ftK, jfSw, speed := 4, 8, 40.0
	if p.Scale == ScaleFull {
		cfg = faultsCfg{
			faultAt: 20 * sim.Millisecond,
			runDur:  80 * sim.Millisecond,
			window:  2 * sim.Millisecond,
			flows:   16,
		}
		ftK, jfSw, speed = 8, 32, 100.0
	}
	ft := topo.FatTreeSet(ftK, 2, speed)
	jf := topo.ScaledJellyfish(jfSw, 2, speed, p.Seed)
	variants := []struct {
		name string
		tp   *topo.Topology
	}{
		{"serial", ft.SerialLow},
		{"parallel homogeneous", ft.ParallelHomo},
		{"parallel heterogeneous", jf.ParallelHetero},
	}
	t := Table{
		ID:    "faults",
		Title: "Runtime plane outage: detection, failover, recovery (extension of paper §3.4)",
		Note: fmt.Sprintf("plane 0 dies at t=%s and stays down; probe-based detection, "+
			"stall-driven repathing; goodput over %s windows",
			secs(cfg.faultAt.Seconds()), secs(cfg.window.Seconds())),
		Header: []string{"network", "pre Gbit/s", "dip", "detect", "failover", "recovery", "post", "blackholed"},
	}
	// The variants are independent cells: each owns a distinct topology
	// (the health monitor marks the dead plane down in the graph, so
	// sharing one across concurrent cells would race), its own engine,
	// network and monitor.
	rows := make([][]Cell, len(variants))
	par.Do(len(variants), func(i int) {
		rows[i] = runFaultsWith(p, variants[i].tp, cfg).row(variants[i].name)
	})
	t.Rows = append(t.Rows, rows...)
	return t
}

// runFaultsWith runs one network through the plane outage and measures
// the full lifecycle. Flows are pinned round-robin across planes at
// start, so a plane-0 outage always hits a known share of the traffic;
// a subflow stalled for one RTO repaths through the same least-loaded
// pick over the paths that survive the monitor's verdict.
func runFaultsWith(p Params, tp *topo.Topology, cfg faultsCfg) faultsMetrics {
	d := p.newDriver(tp, sim.Config{}, tcp.Config{})

	// The fault: a permanent plane-0 outage at cfg.faultAt, which anchors
	// the latency accounting.
	d.Eng.At(cfg.faultAt, func() {
		downPlane0(d.Net)
		if p.Obs != nil {
			p.Obs.RecordFault(obs.FaultRecord{
				Net: d.NetID, TPs: int64(cfg.faultAt), Event: "inject",
				Target: "plane:0", Plane: 0,
			})
		}
	})

	m := faultsMetrics{detectLat: -1, failoverLat: -1, recovery: -1}
	var detectAt sim.Time = -1
	mon := core.NewHealthMonitor(d.Eng, d.Net, d.PNet, cfg.runDur)
	mon.OnChange = func(e core.PlaneEvent) {
		if detectAt < 0 {
			detectAt = e.At
			m.detectLat = e.At - cfg.faultAt
			if p.Obs != nil {
				p.Obs.RecordFault(obs.FaultRecord{
					Net: d.NetID, TPs: int64(e.At), Event: "detect",
					Target:     fmt.Sprintf("plane:%d", e.Plane),
					Plane:      int32(e.Plane),
					LatencySec: m.detectLat.Seconds(),
				})
			}
		}
	}
	mon.Start()

	var firstRepath sim.Time = -1
	onRepath := func(f *tcp.Flow, i int, to graph.Path) {
		if firstRepath >= 0 {
			return
		}
		firstRepath = d.Eng.Now()
		if detectAt >= 0 {
			m.failoverLat = firstRepath - detectAt
		}
		if p.Obs != nil {
			p.Obs.RecordFault(obs.FaultRecord{
				Net: d.NetID, TPs: int64(firstRepath), Event: "failover",
				Target:     fmt.Sprintf("plane:%d", to.Plane(tp.G)),
				Plane:      to.Plane(tp.G),
				LatencySec: m.failoverLat.Seconds(),
			})
		}
	}

	// Long-lived flows between distinct host pairs, each pinned to plane
	// i%planes so every plane carries a deterministic share of the load.
	// Paths are chosen least-loaded-first over the KSP candidates (a
	// deterministic stand-in for a traffic-engineered assignment): the
	// pre-fault traffic must not share one bottleneck link, or the
	// timeline measures core contention instead of the outage — and the
	// post-fault refugees must spread over the surviving planes' cores
	// instead of piling onto one shortest path.
	used := map[graph.LinkID]int{}
	pick := func(cand []graph.Path) graph.Path {
		best, bestScore := cand[0], int(^uint(0)>>1)
		for _, c := range cand {
			s := 0
			for _, l := range c.Links {
				s += used[l]
			}
			if s < bestScore {
				best, bestScore = c, s
			}
		}
		for _, l := range best.Links {
			used[l]++
		}
		return best
	}

	hosts := tp.Hosts
	flows := make([]*tcp.Flow, 0, cfg.flows)
	for i := 0; i < cfg.flows; i++ {
		src := hosts[i%len(hosts)]
		dst := hosts[(i+len(hosts)/2)%len(hosts)]
		cand := d.PNet.HighThroughputPaths(src, dst, 4*tp.Planes)
		if len(cand) == 0 {
			panic(fmt.Sprintf("exp: no paths %d->%d in %s", src, dst, tp.Name))
		}
		want := int32(i % tp.Planes)
		var inPlane []graph.Path
		for _, c := range cand {
			if c.Plane(tp.G) == want {
				inPlane = append(inPlane, c)
			}
		}
		if len(inPlane) == 0 {
			inPlane = cand
		}
		f, err := d.StartFlowOnPaths([]graph.Path{pick(inPlane)}, 1<<40, nil, nil)
		if err != nil {
			panic(err)
		}
		// Stalled flows re-resolve with the same least-loaded rule over
		// whatever paths survive — HighThroughputPaths consults the
		// post-detection routing state, so the dead plane is excluded.
		f.Repath = func(fl *tcp.Flow, si int) (graph.Path, bool) {
			cur := fl.SubflowPath(si)
			cand := d.PNet.HighThroughputPaths(cur.Src(tp.G), cur.Dst(tp.G), 4*tp.Planes)
			if len(cand) == 0 {
				return graph.Path{}, false
			}
			return pick(cand), true
		}
		f.OnRepath = onRepath
		flows = append(flows, f)
	}

	// Goodput timeline: delivered packets per window across all flows.
	nw := int(cfg.runDur / cfg.window)
	wins := make([]float64, nw)
	var prev int64
	for w := 1; w <= nw; w++ {
		w := w
		d.Eng.At(sim.Time(w)*cfg.window, func() {
			var tot int64
			for _, f := range flows {
				tot += f.DeliveredPkts()
			}
			wins[w-1] = float64(tot - prev)
			prev = tot
		})
	}
	d.Eng.RunUntil(cfg.runDur + sim.Microsecond)

	// Reduce the timeline. Window indices: [0, faultIdx) are clean
	// pre-fault windows (skip window 0, the slow-start ramp), faultIdx
	// straddles the injection, and everything after is post-fault.
	faultIdx := int(cfg.faultAt / cfg.window)
	pktBits := 1500 * 8.0
	toBps := pktBits / cfg.window.Seconds()

	pre, n := 0.0, 0
	for w := 1; w < faultIdx && w < nw; w++ {
		pre += wins[w]
		n++
	}
	if n > 0 {
		pre /= float64(n)
	}
	m.preBps = pre * toBps

	minWin := math.Inf(1)
	for w := faultIdx + 1; w < nw; w++ {
		if wins[w] < minWin {
			minWin = wins[w]
		}
		if m.recovery < 0 && pre > 0 && wins[w] >= 0.9*pre {
			m.recovery = sim.Time(w+1)*cfg.window - cfg.faultAt
		}
	}
	if pre > 0 && !math.IsInf(minWin, 1) {
		m.dipFrac = math.Max(0, 1-minWin/pre)
	}

	post, n := 0.0, 0
	for w := nw - nw/4; w < nw; w++ {
		post += wins[w]
		n++
	}
	if n > 0 && pre > 0 {
		m.postFrac = post / float64(n) / pre
	}
	m.blackholed = d.Net.TotalBlackholed()

	if m.recovery >= 0 && p.Obs != nil {
		p.Obs.RecordFault(obs.FaultRecord{
			Net: d.NetID, TPs: int64(cfg.faultAt + m.recovery), Event: "recover",
			Target:     "plane:0",
			Plane:      0,
			LatencySec: m.recovery.Seconds(),
			DipFrac:    m.dipFrac,
		})
	}
	return m
}

// downPlane0 takes every link of plane 0 down in the simulated dataplane
// only, never in the hosts' graph view: the hosts have to notice the
// outage from probe silence before their paths react.
func downPlane0(net *sim.Network) {
	for id := range net.G.NumLinks() {
		if net.G.Link(graph.LinkID(id)).Plane == 0 {
			net.SetLinkUp(graph.LinkID(id), false)
		}
	}
}
