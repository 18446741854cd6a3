package exp

import (
	"fmt"
	"math/rand"

	"pnet/internal/core"
	"pnet/internal/metrics"
	"pnet/internal/ndp"
	"pnet/internal/par"
	"pnet/internal/sim"
	"pnet/internal/tcp"
	"pnet/internal/topo"
	"pnet/internal/workload"
)

// Extension experiments: beyond the paper's published figures, these
// exercise the directions the paper sketches in §6.5 (incast with an
// incast-aware transport) and §7 (performance isolation via plane
// assignment). They are part of this reproduction's "future work
// implemented" scope — see DESIGN.md §6 and EXPERIMENTS.md.

func init() {
	register("incast", "Extension (§6.5): incast completion time, TCP vs DCTCP, serial vs parallel", runIncast)
	register("isolation", "Extension (§7): tenant isolation via plane assignment", runIsolation)
	register("deploy", "Extension (§6.1): physical deployment plan with bundling and patch panels", runDeploy)
}

func runIncast(p Params) Table {
	sw, deg, hps := 16, 4, 4
	fanIns := []int{8, 16, 32}
	if p.Scale == ScaleFull {
		sw, deg, hps = 98, 7, 7
		fanIns = []int{8, 16, 32, 64, 128}
	}
	set := topo.JellyfishSet(sw, deg, hps, 4, 100, p.Seed)

	type variant struct {
		name   string
		tp     *topo.Topology
		simCfg sim.Config
		tcpCfg tcp.Config
	}
	ecn := sim.Config{ECNThresholdBytes: 30 * 1500} // DCTCP K=30 packets
	variants := []variant{
		{"serial low-bw / TCP", set.SerialLow, sim.Config{}, tcp.Config{}},
		{"parallel homo / TCP", set.ParallelHomo, sim.Config{}, tcp.Config{}},
		{"serial low-bw / DCTCP", set.SerialLow, ecn, tcp.Config{DCTCP: true}},
		{"parallel homo / DCTCP", set.ParallelHomo, ecn, tcp.Config{DCTCP: true}},
	}

	t := Table{
		ID:    "incast",
		Title: "Incast completion time (extension of paper §6.5)",
		Note: fmt.Sprintf("%d-host Jellyfish; fan-in senders each ship 256kB to one receiver; "+
			"median across rounds; ECMP single-path spreads P-Net fan-in over 4 planes; "+
			"NDP sprays per-packet with trimming", sw*hps),
		Header: []string{"variant", "fan-in", "median ICT", "p99 ICT", "drops", "retransmits"},
	}
	// One cell per (variant, fan-in) plus one NDP cell per fan-in; the
	// variants share read-only topologies, every cell owns its engine.
	tcpRows := make([][]string, len(variants)*len(fanIns))
	ndpRows := make([][]string, len(fanIns))
	par.Do(len(tcpRows)+len(ndpRows), func(idx int) {
		if idx >= len(tcpRows) {
			fan := fanIns[idx-len(tcpRows)]
			ndpRows[idx-len(tcpRows)] = ndpIncast(set.ParallelHomo, fan, p)
			return
		}
		v, fan := variants[idx/len(fanIns)], fanIns[idx%len(fanIns)]
		d := p.newDriver(v.tp, v.simCfg, v.tcpCfg)
		res, err := workload.RunIncast(d, workload.IncastConfig{
			FanIn:      fan,
			BlockBytes: 256_000,
			Rounds:     7,
			Sel:        workload.Selection{Policy: workload.ECMP},
			Seed:       p.Seed,
		})
		if err != nil {
			tcpRows[idx] = []string{v.name, fmt.Sprint(fan), "stall", "", "", ""}
			return
		}
		s := metrics.Summarize(res.CompletionTimes)
		tcpRows[idx] = []string{
			v.name, fmt.Sprint(fan),
			secs(s.Median), secs(s.P99),
			fmt.Sprint(res.Drops), fmt.Sprint(res.Retransmits),
		}
	})
	t.Rows = append(t.Rows, tcpRows...)
	t.Rows = append(t.Rows, ndpRows...)
	return t
}

// ndpIncast runs the NDP variant: 8-packet queues with trimming, each
// response sprayed over 4 cross-plane shortest paths.
func ndpIncast(tp *topo.Topology, fanIn int, p Params) []string {
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, tp.G, sim.Config{
		QueueBytes:  8 * 1500,
		TrimToBytes: 64,
	})
	if p.Obs != nil {
		p.Obs.AttachNetwork(eng, net)
	}
	pn := core.New(tp)
	rng := rand.New(rand.NewSource(p.Seed))
	var times []float64
	const rounds = 7
	for round := 0; round < rounds; round++ {
		perm := rng.Perm(tp.NumHosts())
		receiver := tp.Hosts[perm[0]]
		t0 := eng.Now()
		remaining := fanIn
		stalled := false
		for _, s := range perm[1 : 1+fanIn] {
			paths := pn.HighThroughputPaths(tp.Hosts[s], receiver, 4)
			f, err := ndp.NewFlow(net, ndp.Config{}, paths, 256_000)
			if err != nil {
				stalled = true
				break
			}
			f.OnComplete = func(*ndp.Flow) { remaining-- }
			f.Start()
		}
		if stalled {
			break
		}
		for remaining > 0 && eng.Now() < 10*sim.Second {
			if !eng.Step() {
				break
			}
		}
		if remaining > 0 {
			break
		}
		times = append(times, (eng.Now() - t0).Seconds())
	}
	if len(times) < rounds {
		return []string{"parallel homo / NDP", fmt.Sprint(fanIn), "stall", "", "", ""}
	}
	s := metrics.Summarize(times)
	return []string{
		"parallel homo / NDP", fmt.Sprint(fanIn),
		secs(s.Median), secs(s.P99),
		fmt.Sprint(net.TotalDrops()), "-",
	}
}

func runIsolation(p Params) Table {
	sw, deg, hps := 12, 4, 4
	bulkHosts, rounds := 16, 8
	if p.Scale == ScaleFull {
		sw, deg, hps = 98, 7, 7
		bulkHosts, rounds = 128, 50
	}
	set := topo.JellyfishSet(sw, deg, hps, 4, 100, p.Seed)
	tp := set.ParallelHomo

	// Latency tenant: ping-pong RPCs across all hosts. Bulk tenant:
	// closed-loop 10 MB flows from a subset of hosts. Compare the RPC
	// tail with and without plane isolation, and against an unloaded
	// network.
	runRPC := func(d *workload.Driver, sel workload.Selection) metrics.Summary {
		samples, _ := workload.RunRPC(d, workload.RPCConfig{
			ReqBytes: 1500, RespBytes: 1500,
			Rounds: rounds, LoopsPerHost: 1,
			Sel:      sel,
			Seed:     p.Seed,
			Deadline: sim.Second,
		})
		return metrics.Summarize(samples)
	}
	startBulk := func(d *workload.Driver, sel workload.Selection) {
		hosts := d.PNet.Topo.Hosts
		for h := 0; h < bulkHosts; h++ {
			for l := 0; l < 2; l++ {
				dst := (h + 7 + l) % len(hosts)
				if dst == h {
					dst = (dst + 1) % len(hosts)
				}
				var loop func()
				src, dstN := hosts[h], hosts[dst]
				loop = func() {
					_, err := d.StartFlow(src, dstN, 10_000_000, sel, nil, func(*tcp.Flow) { loop() })
					if err != nil {
						panic(err)
					}
				}
				loop()
			}
		}
	}

	t := Table{
		ID:    "isolation",
		Title: "Performance isolation by plane assignment (extension of paper §7)",
		Note: fmt.Sprintf("%d-host 4-plane Jellyfish; bulk tenant = 2x10MB closed loops per host; "+
			"latency tenant = 1500B RPCs", sw*hps),
		Header: []string{"scenario", "rpc median", "rpc p99", "vs unloaded p99"},
	}

	// Three independent scenario cells against the shared read-only
	// topology; the "vs unloaded" column needs the baseline's P99, so
	// rows are assembled after the join.
	scenarios := make([]metrics.Summary, 3)
	par.Do(3, func(i int) {
		switch i {
		case 0: // baseline: unloaded network
			d := p.newDriver(tp, sim.Config{}, tcp.Config{})
			scenarios[0] = runRPC(d, workload.Selection{Policy: workload.ECMP})
		case 1: // shared: both tenants over all four planes
			d := p.newDriver(tp, sim.Config{}, tcp.Config{})
			startBulk(d, workload.Selection{Policy: workload.ECMP})
			scenarios[1] = runRPC(d, workload.Selection{Policy: workload.ECMP})
		case 2: // isolated: bulk pinned to planes {0,1}, RPCs to {2,3}
			d := p.newDriver(tp, sim.Config{}, tcp.Config{})
			if err := d.PNet.SetClass("bulk", []int{0, 1}); err != nil {
				panic(err)
			}
			if err := d.PNet.SetClass("latency", []int{2, 3}); err != nil {
				panic(err)
			}
			startBulk(d, workload.Selection{Policy: workload.ECMP, Class: "bulk"})
			scenarios[2] = runRPC(d, workload.Selection{Policy: workload.ECMP, Class: "latency"})
		}
	})
	base, shared, iso := scenarios[0], scenarios[1], scenarios[2]
	t.Rows = append(t.Rows, []string{"unloaded", secs(base.Median), secs(base.P99), f2(1.0)})
	t.Rows = append(t.Rows, []string{"shared planes", secs(shared.Median), secs(shared.P99), f2(shared.P99 / base.P99)})
	t.Rows = append(t.Rows, []string{"isolated planes", secs(iso.Median), secs(iso.P99), f2(iso.P99 / base.P99)})
	return t
}

func runDeploy(p Params) Table {
	sw, deg, hps := jfSize(p.Scale)
	planes := 4
	homo := topo.JellyfishSet(sw, deg, hps, planes, 100, p.Seed).ParallelHomo
	hetero := topo.JellyfishSet(sw, deg, hps, planes, 100, p.Seed).ParallelHetero

	t := Table{
		ID:    "deploy",
		Title: "Deployment plans under §6.1 optimizations",
		Note:  fmt.Sprintf("%d-host 4-plane Jellyfish; duplex cable counts", sw*hps),
		Header: []string{"network", "options", "host cables", "core cables",
			"panel ports", "boxes", "transceivers"},
	}
	add := func(name string, tp *topo.Topology, opts topo.DeployOptions, label string) {
		d := topo.PlanDeployment(tp, opts)
		t.Rows = append(t.Rows, []string{
			name, label,
			fmt.Sprint(d.HostCables), fmt.Sprint(d.CoreCables),
			fmt.Sprint(d.PatchPanelPorts), fmt.Sprint(d.SwitchBoxes),
			fmt.Sprint(d.Transceivers),
		})
	}
	add("homogeneous", homo, topo.DeployOptions{}, "naive")
	add("homogeneous", homo, topo.DeployOptions{Bundle: true}, "bundled")
	add("heterogeneous", hetero, topo.DeployOptions{}, "naive")
	add("heterogeneous", hetero, topo.DeployOptions{Bundle: true}, "bundled (no panel)")
	add("heterogeneous", hetero, topo.DeployOptions{Bundle: true, PatchPanel: true}, "bundled + panel")
	return t
}
