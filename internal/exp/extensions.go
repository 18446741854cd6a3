package exp

import (
	"fmt"
	"math/rand"

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
	// One cell per (variant, fan-in), then one NDP cell per fan-in; the
	// variants share read-only topologies, every cell owns its engine.
	rows := make([][]Cell, (len(variants)+1)*len(fanIns))
	par.Do(len(rows), func(idx int) {
		fan := fanIns[idx%len(fanIns)]
		if idx >= len(variants)*len(fanIns) {
			rows[idx] = ndpIncast(set.ParallelHomo, fan, p)
			return
		}
		v := variants[idx/len(fanIns)]
		d := p.newDriver(v.tp, v.simCfg, v.tcpCfg)
		res, err := workload.RunIncast(d, workload.IncastConfig{
			FanIn:      fan,
			BlockBytes: 256_000,
			Rounds:     7,
			Sel:        workload.Selection{Policy: workload.ECMP},
			Seed:       p.Seed,
		})
		if err != nil {
			rows[idx] = stall(6, label(v.name), count(fan))
			return
		}
		s := metrics.Summarize(res.CompletionTimes)
		rows[idx] = []Cell{
			label(v.name), count(fan),
			secs(s.Median), secs(s.P99),
			count(res.Drops), count(res.Retransmits),
		}
	})
	t.Rows = rows
	return t
}

// ndpIncast runs the NDP variant: 8-packet queues with trimming, each
// response sprayed over 4 cross-plane shortest paths.
func ndpIncast(tp *topo.Topology, fanIn int, p Params) []Cell {
	d := p.newDriver(tp, sim.Config{QueueBytes: 8 * 1500, TrimToBytes: 64}, tcp.Config{})
	rng := rand.New(rand.NewSource(p.Seed))
	var times []float64
	const rounds = 7
run:
	for round := 0; round < rounds; round++ {
		perm := rng.Perm(tp.NumHosts())
		receiver := tp.Hosts[perm[0]]
		t0 := d.Eng.Now()
		remaining := fanIn
		for _, s := range perm[1 : 1+fanIn] {
			paths := d.PNet.HighThroughputPaths(tp.Hosts[s], receiver, 4)
			f, err := ndp.NewFlow(d.Net, paths, 256_000)
			if err != nil {
				break run
			}
			f.OnComplete = func(*ndp.Flow) { remaining-- }
			f.Start()
		}
		for remaining > 0 && d.Eng.Now() < 10*sim.Second {
			if !d.Eng.Step() {
				break
			}
		}
		if remaining > 0 {
			break
		}
		times = append(times, (d.Eng.Now() - t0).Seconds())
	}
	if len(times) < rounds {
		return stall(6, label("parallel homo / NDP"), count(fanIn))
	}
	s := metrics.Summarize(times)
	return []Cell{
		label("parallel homo / NDP"), count(fanIn),
		secs(s.Median), secs(s.P99),
		count(d.Net.TotalDrops()), label("-"),
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
	runRPC := func(d *workload.Driver, sel workload.Selection) []float64 {
		samples, _ := workload.RunRPC(d, workload.RPCConfig{
			ReqBytes: 1500, RespBytes: 1500,
			Rounds: rounds, LoopsPerHost: 1,
			Sel:      sel,
			Seed:     p.Seed,
			Deadline: sim.Second,
		})
		return samples
	}
	// startBulk starts the bulk loops; the first flow that cannot start,
	// at once or when its loop comes round again, ends up in *bulkErr.
	startBulk := func(d *workload.Driver, sel workload.Selection, bulkErr *error) {
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
					if err != nil && *bulkErr == nil {
						*bulkErr = err
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
	// rows are assembled after the join. A cell whose RPCs all failed, or
	// whose bulk tenant could not start a flow, stalls (nil).
	scenarios := make([]*metrics.Summary, 3)
	par.Do(3, func(i int) {
		d := p.newDriver(tp, sim.Config{}, tcp.Config{})
		ecmp := workload.Selection{Policy: workload.ECMP}
		var samples []float64
		var bulkErr error
		switch i {
		case 0: // baseline: unloaded network
			samples = runRPC(d, ecmp)
		case 1: // shared: both tenants over all four planes
			startBulk(d, ecmp, &bulkErr)
			samples = runRPC(d, ecmp)
		case 2: // isolated: bulk pinned to planes {0,1}, RPCs to {2,3}
			if err := d.PNet.SetClass("bulk", []int{0, 1}); err != nil {
				panic(err)
			}
			if err := d.PNet.SetClass("latency", []int{2, 3}); err != nil {
				panic(err)
			}
			startBulk(d, workload.Selection{Policy: workload.ECMP, Class: "bulk"}, &bulkErr)
			samples = runRPC(d, workload.Selection{Policy: workload.ECMP, Class: "latency"})
		}
		if len(samples) > 0 && bulkErr == nil {
			s := metrics.Summarize(samples)
			scenarios[i] = &s
		}
	})
	base := scenarios[0]
	for i, name := range []string{"unloaded", "shared planes", "isolated planes"} {
		s := scenarios[i]
		switch {
		case s == nil:
			t.Rows = append(t.Rows, stall(4, label(name)))
		case base == nil:
			t.Rows = append(t.Rows, []Cell{label(name), secs(s.Median), secs(s.P99), {}})
		default:
			t.Rows = append(t.Rows, []Cell{label(name), secs(s.Median), secs(s.P99), f2(s.P99 / base.P99)})
		}
	}
	return t
}

func runDeploy(p Params) Table {
	sw, _, hps := jfSize(p.Scale)
	homo := p.jellyfish(4, 100, false)()
	hetero := p.jellyfish(4, 100, true)()

	t := Table{
		ID:    "deploy",
		Title: "Deployment plans under §6.1 optimizations",
		Note:  fmt.Sprintf("%d-host 4-plane Jellyfish; duplex cable counts", sw*hps),
		Header: []string{"network", "options", "host cables", "core cables",
			"panel ports", "boxes", "transceivers"},
	}
	add := func(name string, tp *topo.Topology, opts topo.DeployOptions, optsName string) {
		d := topo.PlanDeployment(tp, opts)
		t.Rows = append(t.Rows, []Cell{
			label(name), label(optsName),
			count(d.HostCables), count(d.CoreCables),
			count(d.PatchPanelPorts), count(d.SwitchBoxes),
			count(d.Transceivers),
		})
	}
	add("homogeneous", homo, topo.DeployOptions{}, "naive")
	add("homogeneous", homo, topo.DeployOptions{Bundle: true}, "bundled")
	add("heterogeneous", hetero, topo.DeployOptions{}, "naive")
	add("heterogeneous", hetero, topo.DeployOptions{Bundle: true}, "bundled (no panel)")
	add("heterogeneous", hetero, topo.DeployOptions{Bundle: true, PatchPanel: true}, "bundled + panel")
	return t
}
