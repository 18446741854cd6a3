package exp

import (
	"fmt"
	"math"

	"pnet/internal/chaos"
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
	faultAt sim.Time // default plane-0 outage injection time
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

func (m faultsMetrics) row(name string) []string {
	lat := func(t sim.Time) string {
		if t < 0 {
			return "-"
		}
		return secs(t.Seconds())
	}
	return []string{
		name,
		fmt.Sprintf("%.1f", m.preBps/1e9),
		fmt.Sprintf("%.0f%%", m.dipFrac*100),
		lat(m.detectLat),
		lat(m.failoverLat),
		lat(m.recovery),
		fmt.Sprintf("%.0f%%", m.postFrac*100),
		fmt.Sprintf("%d", m.blackholed),
	}
}

// faultsVariant is one network faults rides through the outage.
type faultsVariant struct {
	name string
	tp   *topo.Topology
}

// faultsSetup sizes the faults experiment for p's scale and builds its
// three networks: the serial baseline and the two P-Nets.
func faultsSetup(p Params) (faultsCfg, []faultsVariant) {
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
	return cfg, []faultsVariant{
		{"serial", ft.SerialLow},
		{"parallel homogeneous", ft.ParallelHomo},
		{"parallel heterogeneous", jf.ParallelHetero},
	}
}

// CheckChaos reports, naming the network, the first -chaos target that
// one of the faults experiment's networks at p's scale and seed lacks;
// nil when p has no chaos script. It is what turns a mistyped script
// into a usage error instead of a panic inside a run.
func CheckChaos(p Params) error {
	if p.Chaos == nil {
		return nil
	}
	_, variants := faultsSetup(p)
	for _, v := range variants {
		if err := p.Chaos.Build(v.tp.G, p.Seed).Check(v.tp.G); err != nil {
			return fmt.Errorf("faults network %q (%s): %v", v.name, v.tp.Name, err)
		}
	}
	return nil
}

// runFaults rides the paper's network types through the same mid-run
// dataplane outage. The serial baseline has nowhere to fail over to and
// never recovers; the parallel P-Nets detect the outage from probe
// silence (no oracle), repath the stalled flows onto surviving planes,
// and return to their pre-fault goodput — the §3.4 fault tolerance
// argument made measurable.
func runFaults(p Params) Table {
	cfg, variants := faultsSetup(p)
	script := fmt.Sprintf("plane 0 dies at t=%s and stays down", secs(cfg.faultAt.Seconds()))
	if p.Chaos != nil {
		script = fmt.Sprintf("chaos script %q", p.Chaos)
	}
	t := Table{
		ID:    "faults",
		Title: "Runtime plane outage: detection, failover, recovery (extension of paper §3.4)",
		Note: fmt.Sprintf("%s; probe-based detection, "+
			"stall-driven repathing; goodput over %s windows",
			script, secs(cfg.window.Seconds())),
		Header: []string{"network", "pre Gbit/s", "dip", "detect", "failover", "recovery", "post", "blackholed"},
	}
	// The variants are independent cells: each owns a distinct topology
	// (the chaos injector mutates link state, so sharing a graph across
	// concurrent cells would race), its own engine, monitor, and
	// injector.
	rows := make([][]string, len(variants))
	par.Do(len(variants), func(i int) {
		rows[i] = runFaultsWith(p, variants[i].tp, cfg).row(variants[i].name)
	})
	t.Rows = append(t.Rows, rows...)
	return t
}

// runFaultsWith runs one network through the fault script and measures
// the full lifecycle. Flows are pinned round-robin across planes at
// start, so a plane-0 outage always hits a known share of the traffic;
// stalled subflows re-resolve through the driver's shortest-path
// default, which by then reflects the monitor's verdict.
func runFaultsWith(p Params, tp *topo.Topology, cfg faultsCfg) faultsMetrics {
	d := p.newDriver(tp, sim.Config{}, tcp.Config{StallRTOs: 1})

	// The fault script: the -chaos flag when given, otherwise a permanent
	// plane-0 outage at cfg.faultAt. Latency accounting is anchored at the
	// script's first injecting event.
	var sched chaos.Schedule
	if p.Chaos != nil {
		sched = p.Chaos.Build(tp.G, p.Seed)
	} else {
		sched.PlaneOutage(0, cfg.faultAt, 0)
	}
	faultAt := cfg.faultAt
	for _, e := range sched.Events {
		if e.Kind.Injecting() {
			faultAt = e.At
			break // events are time-sorted
		}
	}
	inj := chaos.NewInjector(d.Eng, d.Net, sched)
	inj.Obs = p.Obs
	inj.NetID = d.NetID
	inj.Arm()

	m := faultsMetrics{detectLat: -1, failoverLat: -1, recovery: -1}
	var detectAt sim.Time = -1
	mon := core.NewHealthMonitor(d.Eng, d.Net, d.PNet, 0, 1, cfg.runDur)
	mon.OnChange = func(e core.PlaneEvent) {
		if !e.Up && detectAt < 0 {
			detectAt = e.At
			m.detectLat = e.At - faultAt
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
	d.OnRepath = func(f *tcp.Flow, i int, to graph.Path) {
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
	faultIdx := int(faultAt / cfg.window)
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
			m.recovery = sim.Time(w+1)*cfg.window - faultAt
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
			Net: d.NetID, TPs: int64(faultAt + m.recovery), Event: "recover",
			Target:     "plane:0",
			Plane:      0,
			LatencySec: m.recovery.Seconds(),
			DipFrac:    m.dipFrac,
		})
	}
	return m
}
