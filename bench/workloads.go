package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"syscall"
	"time"

	"pnet/internal/graph"
	"pnet/internal/mcf"
	"pnet/internal/route"
	"pnet/internal/sim"
	"pnet/internal/tcp"
	"pnet/internal/topo"
	"pnet/internal/workload"
)

// A cell is one fixed-size job of a pass and the values that say its
// output is right. Num and Rows are compared exactly, against
// golden.json for the seeds it holds and against the cold pass for every
// seed, so they hold only what a change to the simulator's speed must
// leave alone: no wall time, no event count, no fingerprint.
type cell struct {
	ID   string             `json:"id"`
	Err  string             `json:"err,omitempty"`
	Num  map[string]float64 `json:"num,omitempty"`
	Rows [][]string         `json:"rows,omitempty"`
}

// jellyfish is a topo.JellyfishSet shape.
type jellyfish struct{ switches, degree, hostsPer, planes int }

func (j jellyfish) set(seed int64) topo.NetworkSet {
	return topo.JellyfishSet(j.switches, j.degree, j.hostsPer, j.planes, 100, seed)
}

// sizes fixes the input size of every cell. benchSizes is what the
// benchmark runs; the tests shrink it.
type sizes struct {
	ftArity, ftPlanes int   // lp_solve: fat tree of ft_ecmp and ft_ksp
	ftKs              []int // lp_solve: multipath degrees swept by ft_ksp
	lpJF              jellyfish
	lpJFK             int // lp_solve: K of jf_ksp_a2a

	bulkJF    jellyfish
	bulkBytes int64 // bulk_mptcp: one flow of this size per host

	rpcJF          jellyfish
	rpcSmallRounds int // rpc_short: 1500 B ping-pong rounds, 1 loop per host
	rpcLargeRounds int // rpc_short: 100 kB request rounds
	rpcLargeLoops  int // rpc_short: concurrent 100 kB loops per host

	suite []string // suite_observed: pnetbench experiment ids, in order
}

// benchSizes are the paper's small-scale cells (exp.ScaleSmall shapes),
// cut where a pass would not fit the run-time cap four times over: see
// README.md for what was cut from which figure.
var benchSizes = sizes{
	ftArity: 8, ftPlanes: 4,
	ftKs:  []int{1, 2, 4, 8, 16, 32},
	lpJF:  jellyfish{16, 4, 4, 4},
	lpJFK: 8,

	bulkJF:    jellyfish{16, 4, 4, 4},
	bulkBytes: 7_000_000,

	rpcJF:          jellyfish{24, 4, 4, 4},
	rpcSmallRounds: 500,
	rpcLargeRounds: 5,
	rpcLargeLoops:  3,

	suite: []string{"faults", "incast", "fig10"},
}

// env is what a pass runs with: the generated inputs' seed, the sizes,
// the tracer (off on timed passes), and for suite_observed the built
// CLI and a directory for its report files.
type env struct {
	seed int64
	sz   sizes
	tr   *tracer
	cli  string
	tmp  string
	// child accumulates the cost of every child process of the pass.
	child childCost
}

// A benchWorkload is one closed, fixed-size batch job: every pass runs
// the same cells on the same inputs.
type benchWorkload struct {
	name string
	why  string
	// children workloads spend their time in child processes, whose CPU
	// time is read from their exit status, not the harness's rusage.
	children bool
	run      func(e *env) []cell
}

var workloads = []benchWorkload{
	{name: "lp_solve", run: lpSolve,
		why: "the LP side of every throughput figure: topo, graph, route and mcf do all the work, sim and tcp none"},
	{name: "bulk_mptcp", run: bulkMPTCP,
		why: "long TCP and MPTCP flows through filling drop-tail queues: the in-plane hop and transmit path is over 90% of the pass"},
	{name: "rpc_short", run: rpcShort,
		why: "the same sim and tcp layers with a few hops per flow: flow creation, path selection, deliver/ACK and timers dominate"},
	{name: "suite_observed", run: suiteObserved, children: true,
		why: "the built CLI with every observer on, on the fault, incast and RPC experiments: the only workload where obs, report, chaos, core.HealthMonitor and ndp carry weight"},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

// --- lp_solve ------------------------------------------------------------

func lpSolve(e *env) []cell {
	return []cell{ftECMP(e), ftKSP(e), jfKSPAllToAll(e), jfFree(e)}
}

// ftECMP is a fig6a cell: all-to-all on the parallel fat tree, every
// commodity hash-pinned to one path, rates allocated max-min fairly.
func ftECMP(e *env) cell {
	e.tr.cell = "ft_ecmp"
	done := e.tr.begin("topo.build")
	tp := topo.FatTreeSet(e.sz.ftArity, e.sz.ftPlanes, 100).ParallelHomo
	done()
	done = e.tr.begin("workload.commodities")
	cs := workload.AllToAllCommodities(tp, 0)
	done()
	done = e.tr.begin("route.ecmp")
	paths := route.ECMPPaths(tp.G, cs, uint64(e.seed))
	done()
	done = e.tr.begin("mcf.maxmin")
	r := mcf.MaxMinPinned(tp.G, cs, paths)
	done()
	e.tr.count("topo.builds", 1)
	c := cell{ID: e.tr.cell, Num: map[string]float64{
		"commodities":  float64(len(cs)),
		"maxmin_total": r.Total,
		"min_rate":     r.MinRate,
	}}
	if r.Unrouted > 0 {
		c.Err = fmt.Sprintf("%d commodities unrouted", r.Unrouted)
	}
	return c
}

// ftKSP is a fig6c cell: a permutation on the same fat tree, Yen's
// K-shortest paths once at the largest K, then one Garg–Könemann solve
// per prefix K.
func ftKSP(e *env) cell {
	e.tr.cell = "ft_ksp"
	done := e.tr.begin("topo.build")
	tp := topo.FatTreeSet(e.sz.ftArity, e.sz.ftPlanes, 100).ParallelHomo
	done()
	done = e.tr.begin("workload.commodities")
	cs := workload.PermutationCommodities(tp, 100, rand.New(rand.NewSource(e.seed)))
	done()
	ks := e.sz.ftKs
	done = e.tr.begin("route.ksp")
	full := route.KSPPathsSeeded(tp.G, cs, ks[len(ks)-1], e.seed)
	done()
	e.tr.count("topo.builds", 1)
	e.tr.count("route.ksp_pairs", float64(len(cs)))

	c := cell{ID: e.tr.cell, Num: map[string]float64{"commodities": float64(len(cs))}}
	for _, k := range ks {
		paths := make([][]graph.Path, len(full))
		for i, ps := range full {
			paths[i] = ps[:min(k, len(ps))]
		}
		done = e.tr.begin("mcf.fixed")
		r := mcf.FixedPaths(tp.G, cs, paths, mcf.Options{Epsilon: 0.08})
		done()
		solved(e, &c, "_k"+strconv.Itoa(k), r)
	}
	return c
}

// jfKSPAllToAll is fig8a-shaped: all-to-all on the heterogeneous
// Jellyfish over K-shortest paths.
func jfKSPAllToAll(e *env) cell {
	e.tr.cell = "jf_ksp_a2a"
	done := e.tr.begin("topo.build")
	tp := e.sz.lpJF.set(e.seed).ParallelHetero
	done()
	done = e.tr.begin("workload.commodities")
	cs := workload.AllToAllCommodities(tp, 100/float64(tp.NumHosts()-1))
	done()
	done = e.tr.begin("route.ksp")
	paths := route.KSPPathsSeeded(tp.G, cs, e.sz.lpJFK, e.seed)
	done()
	done = e.tr.begin("mcf.fixed")
	r := mcf.FixedPaths(tp.G, cs, paths, mcf.Options{Epsilon: 0.08})
	done()
	e.tr.count("topo.builds", 1)
	e.tr.count("route.ksp_pairs", float64(len(cs)))
	c := cell{ID: e.tr.cell, Num: map[string]float64{"commodities": float64(len(cs))}}
	solved(e, &c, "", r)
	return c
}

// jfFree is a fig7 cell: rack-level all-to-all with no path constraint,
// Garg–Könemann with the Dijkstra oracle.
func jfFree(e *env) cell {
	e.tr.cell = "jf_free"
	done := e.tr.begin("topo.build")
	tp := e.sz.lpJF.set(e.seed).ParallelHetero
	done()
	done = e.tr.begin("workload.commodities")
	g, cs := workload.RackAllToAll(tp, 10)
	done()
	done = e.tr.begin("mcf.free")
	r := mcf.Free(g, cs, mcf.Options{Epsilon: 0.08})
	done()
	e.tr.count("topo.builds", 1)
	c := cell{ID: e.tr.cell, Num: map[string]float64{"commodities": float64(len(cs))}}
	solved(e, &c, "", r)
	return c
}

// solved records one Garg–Könemann result in its cell and in the
// solver's counters.
func solved(e *env, c *cell, suffix string, r mcf.Result) {
	c.Num["lambda"+suffix] = r.Lambda
	c.Num["phases"+suffix] = float64(r.Stats.Phases)
	c.Num["iterations"+suffix] = float64(r.Stats.Iterations)
	e.tr.count("mcf.phases", float64(r.Stats.Phases))
	e.tr.count("mcf.iterations", float64(r.Stats.Iterations))
	if r.Unrouted > 0 || r.Lambda <= 0 {
		c.Err = fmt.Sprintf("solve%s: lambda %v, %d commodities unrouted", suffix, r.Lambda, r.Unrouted)
	}
}

// --- the two packet workloads ---------------------------------------------

// netUnderTest is one of the four network types the paper's packet
// experiments compare, with the routing the paper gives it.
type netUnderTest struct {
	name string
	tp   *topo.Topology
	sel  workload.Selection
}

func fourNets(e *env, j jellyfish, parallel workload.Selection) []netUnderTest {
	done := e.tr.begin("topo.build")
	set := j.set(e.seed)
	done()
	e.tr.count("topo.builds", 1)
	ecmp := workload.Selection{Policy: workload.ECMP}
	return []netUnderTest{
		{"serial_low", set.SerialLow, ecmp},
		{"parallel_homo", set.ParallelHomo, parallel},
		{"parallel_hetero", set.ParallelHetero, parallel},
		{"serial_high", set.SerialHigh, ecmp},
	}
}

// bulkMPTCP is fig9's long-flow column: one flow per host on each of the
// four networks, single-path on the serial ones and 4-subflow MPTCP
// over KSP on the parallel ones.
func bulkMPTCP(e *env) []cell {
	e.tr.cell = "topologies"
	nets := fourNets(e, e.sz.bulkJF, workload.Selection{Policy: workload.KSP, K: 4})
	cells := make([]cell, len(nets))
	for i, n := range nets {
		e.tr.cell = n.name
		d := workload.NewDriver(n.tp, sim.Config{}, tcp.Config{})
		done := e.tr.begin("workload.commodities")
		cs := workload.PermutationCommodities(n.tp, 1, rand.New(rand.NewSource(e.seed)))
		done()
		fcts := make([]float64, len(cs))
		var err error
		done = e.tr.begin("workload.start_flows")
		for j, c := range cs {
			j := j
			_, err = d.StartFlow(c.Src, c.Dst, e.sz.bulkBytes, n.sel, nil, func(f *tcp.Flow) {
				fcts[j] = float64(f.FCT()) // picoseconds
			})
			if err != nil {
				break
			}
		}
		done()
		if err == nil {
			done = e.tr.begin("sim.run")
			m0 := e.tr.mallocs()
			err = d.MustRunUntil(120*sim.Second, int64(len(cs)))
			e.tr.count("sim.mallocs", e.tr.mallocs()-m0)
			done()
		}
		cells[i] = simCell(e, n.name, d, fcts, err)
	}
	return cells
}

// rpcShort is fig10/table2's ping-pong plus a fig11 cell: closed
// request/response loops of short flows on each of the four networks,
// all single-path.
func rpcShort(e *env) []cell {
	e.tr.cell = "topologies"
	nets := fourNets(e, e.sz.rpcJF, workload.Selection{Policy: workload.ECMP})
	kinds := []struct {
		name string
		cfg  workload.RPCConfig
	}{
		{"ping_1500B", workload.RPCConfig{ReqBytes: 1500, RespBytes: 1500, Rounds: e.sz.rpcSmallRounds, LoopsPerHost: 1}},
		{"req_100kB", workload.RPCConfig{ReqBytes: 100_000, RespBytes: 1500, Rounds: e.sz.rpcLargeRounds, LoopsPerHost: e.sz.rpcLargeLoops}},
	}
	var cells []cell
	for _, n := range nets {
		for _, k := range kinds {
			e.tr.cell = n.name + "." + k.name
			d := workload.NewDriver(n.tp, sim.Config{}, tcp.Config{})
			cfg := k.cfg
			cfg.Sel, cfg.Seed, cfg.Deadline = n.sel, e.seed, 120*sim.Second
			// RunRPC starts its flows from completion callbacks, so flow
			// creation and path selection are inside the run, as they
			// are for a user of the workload package.
			done := e.tr.begin("sim.run")
			m0 := e.tr.mallocs()
			samples, err := workload.RunRPC(d, cfg)
			e.tr.count("sim.mallocs", e.tr.mallocs()-m0)
			done()
			for i := range samples {
				samples[i] *= float64(sim.Second) // picoseconds, like FCTs
			}
			c := simCell(e, e.tr.cell, d, samples, err)
			c.Num["rpcs"] = float64(len(samples))
			cells = append(cells, c)
		}
	}
	return cells
}

// simCell reads a finished simulation through the driver's and the
// network's public counters. times are completion times in picoseconds.
func simCell(e *env, id string, d *workload.Driver, times []float64, err error) cell {
	var hops int64
	for l := 0; l < d.Net.G.NumLinks(); l++ {
		hops += d.Net.Stats(graph.LinkID(l)).TxPackets
	}
	drops := d.Net.TotalDrops()
	e.tr.count("sim.events", float64(d.Eng.EventsFired()))
	e.tr.count("sim.packet_hops", float64(hops))
	e.tr.count("sim.drops", float64(drops))
	e.tr.count("tcp.flows", float64(d.Flows))
	c := cell{ID: id, Num: map[string]float64{
		"flows":       float64(d.Flows),
		"packet_hops": float64(hops),
		"drops":       float64(drops),
	}}
	if err != nil {
		c.Err = err.Error()
		return c
	}
	sort.Float64s(times)
	var sum float64
	for _, t := range times {
		sum += t
	}
	c.Num["mean_ps"] = sum / float64(len(times))
	c.Num["p99_ps"] = quantile(times, 0.99)
	return c
}

// --- suite_observed --------------------------------------------------------

// observers are the pnetbench flags CI's perf gate turns on, beside the
// -report that is their sink.
var observers = []string{"-spans", "-fingerprint"}

// suiteObserved runs the built CLI once per experiment, one child at a
// time, with every observer on. The sweep cells run serially: on the
// 2-core reference box a pass at the machine's width varied three times
// as much from pass to pass (README.md), so width is priced by the
// par.* metrics of the traced run instead.
func suiteObserved(e *env) []cell {
	cells := make([]cell, len(e.sz.suite))
	for i, id := range e.sz.suite {
		e.tr.cell = id
		cells[i] = runCLI(e, id, 1, append([]string{"-report"}, observers...))
	}
	return cells
}

// childCost is what the child processes of a pass cost, from spawn to
// exit: wall and CPU summed, resident set at its peak.
type childCost struct {
	wall, cpu float64 // seconds
	rssMB     float64
}

// runCLI runs one experiment through the built pnetbench and reads its
// table and, when "-report" is among the flags, its report. workers is
// pnetbench's -workers (0 = the machine's width, 1 = serial). The
// child's cost is added to e.child.
func runCLI(e *env, id string, workers int, flags []string) cell {
	c := cell{ID: id}
	args := []string{"-exp", id, "-seed", strconv.FormatInt(e.seed, 10),
		"-workers", strconv.Itoa(workers), "-format", "json"}
	reportPath := ""
	for _, f := range flags {
		args = append(args, f)
		if f == "-report" {
			reportPath = filepath.Join(e.tmp, id+".report.json")
			args = append(args, reportPath)
		}
	}
	cmd := exec.Command(e.cli, args...)
	done := e.tr.begin("exp." + id)
	start := time.Now()
	out, err := cmd.Output() // the child's stderr is its progress log: dropped
	e.child.wall += time.Since(start).Seconds()
	done()
	if ps := cmd.ProcessState; ps != nil {
		e.child.cpu += (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			e.child.rssMB = max(e.child.rssMB, float64(ru.Maxrss)/1024) // Linux reports KiB
		}
	}
	if err != nil {
		c.Err = fmt.Sprintf("pnetbench -exp %s: %v", id, err)
		return c
	}
	var table struct {
		Rows [][]string `json:"rows"`
	}
	if err := json.Unmarshal(out, &table); err != nil || len(table.Rows) == 0 {
		c.Err = fmt.Sprintf("pnetbench -exp %s: no table on stdout (%v)", id, err)
		return c
	}
	c.Rows = table.Rows
	for _, row := range table.Rows {
		for _, v := range row {
			if v == "stall" {
				c.Err = fmt.Sprintf("pnetbench -exp %s: stalled row %q", id, row[0])
			}
		}
	}
	if reportPath == "" {
		return c
	}
	b, err := os.ReadFile(reportPath)
	if err != nil {
		c.Err = err.Error()
		return c
	}
	var rep struct {
		Flows       float64 `json:"flows"`
		FlowBytes   float64 `json:"flow_bytes"`
		Retransmits float64 `json:"retransmits"`
		Drops       float64 `json:"drops"`
		FCT         struct {
			Count, Mean, P50, P99, Max float64
		} `json:"fct_s"`
		Engine struct {
			Events float64
		} `json:"engine"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		c.Err = fmt.Sprintf("%s: %v", reportPath, err)
		return c
	}
	c.Num = map[string]float64{
		"flows": rep.Flows, "flow_bytes": rep.FlowBytes, "retransmits": rep.Retransmits,
		"drops": rep.Drops, "fct_count": rep.FCT.Count, "fct_mean_s": rep.FCT.Mean,
		"fct_p50_s": rep.FCT.P50, "fct_p99_s": rep.FCT.P99, "fct_max_s": rep.FCT.Max,
	}
	e.tr.count("report.bytes", float64(len(b)))
	e.tr.count("report.flows", rep.Flows)
	e.tr.count("report.engine_events", rep.Engine.Events)
	return c
}
