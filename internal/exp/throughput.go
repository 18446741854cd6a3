package exp

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"pnet/internal/graph"
	"pnet/internal/mcf"
	"pnet/internal/par"
	"pnet/internal/route"
	"pnet/internal/topo"
	"pnet/internal/workload"
)

func init() {
	register("table1", "Component counts for serial, chassis, and 8x parallel fat trees (8192 hosts)", runTable1)
	register("fig6a", "Fat tree all-to-all throughput under ECMP vs number of planes", runFig6a)
	register("fig6b", "Fat tree permutation throughput under ECMP vs number of planes", runFig6b)
	register("fig6c", "Fat tree permutation throughput vs multipath degree (MPTCP+KSP)", runFig6c)
	register("fig7", "Jellyfish rack-level all-to-all ideal throughput (no path constraint)", runFig7)
	register("fig8a", "Jellyfish all-to-all throughput under 8-way KSP vs number of planes", runFig8a)
	register("fig8b", "Jellyfish permutation throughput under 8-way KSP vs number of planes", runFig8b)
	register("fig8c", "Jellyfish permutation throughput vs multipath degree", runFig8c)
}

func runTable1(Params) Table {
	rows := topo.Table1()
	t := Table{
		ID:     "table1",
		Title:  "Component counts (paper Table 1)",
		Header: []string{"architecture", "tiers", "hops", "chips", "boxes", "links"},
	}
	names := []string{"Serial (scale-out)", "Serial chassis", "Parallel 8x"}
	for i, r := range rows {
		t.Rows = append(t.Rows, []Cell{
			label(names[i]),
			count(r.Tiers), count(r.Hops), count(r.Chips),
			count(r.Boxes), num(float64(r.Links)/1000, "%.1fk"),
		})
	}
	return t
}

// ftArity returns the fat tree arity per scale: k=8 (128 hosts) small,
// k=16 (1024 hosts, the paper's size) full.
func ftArity(s Scale) int {
	if s == ScaleFull {
		return 16
	}
	return 8
}

// jfSize returns the Jellyfish sizing per scale: (switches, netDegree,
// hostsPerSwitch). Full scale is the paper's 686-host 98x(7+7)
// configuration; small keeps the 50/50 port split at 24 switches.
func jfSize(s Scale) (sw, deg, hps int) {
	if s == ScaleFull {
		return 98, 7, 7
	}
	return 24, 4, 4
}

const trialCount = 3 // the paper repeats each experiment >= 5 times; we default to 3

// An lpCell is one LP solve of a throughput figure. It names what the
// paper's method (§5) fixes: a network, the traffic on it, the rule that
// gives each commodity its paths, and the solver that rates the result.
type lpCell struct {
	net     func() *topo.Topology
	traffic func(*topo.Topology) (*graph.Graph, []route.Commodity)
	paths   func(*graph.Graph, []route.Commodity) [][]graph.Path // nil for gk-free, which routes itself
	solver  string                                               // "maxmin", "gk-fixed" or "gk-free"
	k       int                                                  // the solver record's K
}

// solve runs one cell and puts its solve on the record. Its clock, around
// the solver call alone, is the one timer of every LP solve. It returns
// what the figure normalizes: λ, or a maxmin cell's total rate.
func (p Params) solve(expID string, c lpCell) float64 {
	g, cs := c.traffic(c.net())
	var paths [][]graph.Path
	if c.paths != nil {
		paths = c.paths(g, cs)
	}
	opts := mcf.Options{Epsilon: 0.08} // every figure's Garg–Könemann accuracy
	var r mcf.Result
	start := time.Now()
	switch c.solver {
	case "maxmin":
		r.Lambda = mcf.MaxMinPinned(g, cs, paths).Total
	case "gk-fixed":
		r = mcf.FixedPaths(g, cs, paths, opts)
	case "gk-free":
		r = mcf.Free(g, cs, opts)
	default:
		panic("exp: no solver " + c.solver)
	}
	p.recordSolver(expID, c.solver, c.k, r, time.Since(start))
	return r.Lambda
}

// solveAll runs a figure's cells as wide as the par limit. Cells share
// nothing writable, so the values are bit-identical at any width.
func (p Params) solveAll(expID string, cells []lpCell) []float64 {
	vals := make([]float64, len(cells))
	par.Do(len(cells), func(i int) { vals[i] = p.solve(expID, cells[i]) })
	return vals
}

// fatTree builds one fat-tree evaluation network at p's scale, as
// topo.FatTreeSet does: planes identical trees of speed-Gb/s links.
func (p Params) fatTree(planes int, speed float64) func() *topo.Topology {
	k := ftArity(p.Scale)
	return func() *topo.Topology {
		specs := make([]topo.PlaneSpec, planes)
		plane := topo.FatTreePlane(k)
		for i := range specs {
			specs[i] = plane
		}
		return topo.Assemble(fmt.Sprintf("ft%d %dx%.0fG", k, planes, speed), speed, specs...)
	}
}

// jellyfish builds one Jellyfish evaluation network at p's scale, as
// topo.JellyfishSet does: planes copies of the plane drawn from p.Seed,
// or, heterogeneous, plane i drawn from p.Seed+i.
func (p Params) jellyfish(planes int, speed float64, hetero bool) func() *topo.Topology {
	sw, deg, hps := jfSize(p.Scale)
	return func() *topo.Topology {
		specs := make([]topo.PlaneSpec, planes)
		specs[0] = topo.JellyfishPlane(sw, deg, hps, p.Seed)
		for i := 1; i < planes; i++ {
			specs[i] = specs[0]
			if hetero {
				specs[i] = topo.JellyfishPlane(sw, deg, hps, p.Seed+int64(i))
			}
		}
		return topo.Assemble(fmt.Sprintf("jf%d-%d %dx%.0fG hetero=%t", sw, deg, planes, speed, hetero), speed, specs...)
	}
}

// ecmpFigure runs fig6a/fig6b: a traffic pattern under per-flow ECMP, its
// max-min fair total over trialCount trials per network, normalized to
// the serial low-bw network. Trial t draws its pattern from Seed+t and
// hashes its flows from Seed+t·7919.
func ecmpFigure(id, title string, p Params, pattern func(*topo.Topology, *rand.Rand) []route.Commodity) Table {
	k := ftArity(p.Scale)
	names := []string{"serial low-bw (1x100G)", "parallel 2x100G", "parallel 4x100G", "parallel 8x100G", "serial high-bw (1x800G)"}
	nets := []func() *topo.Topology{p.fatTree(1, 100), p.fatTree(2, 100), p.fatTree(4, 100), p.fatTree(8, 100), p.fatTree(1, 800)}
	var cells []lpCell
	for _, net := range nets {
		for trial := int64(0); trial < trialCount; trial++ {
			cells = append(cells, lpCell{
				net: net,
				traffic: func(tp *topo.Topology) (*graph.Graph, []route.Commodity) {
					return tp.G, pattern(tp, rand.New(rand.NewSource(p.Seed+trial)))
				},
				paths: func(g *graph.Graph, cs []route.Commodity) [][]graph.Path {
					return route.ECMPPaths(g, cs, uint64(p.Seed+trial*7919))
				},
				solver: "maxmin",
			})
		}
	}
	vals := p.solveAll(id, cells)
	base, _ := meanStd(vals[:trialCount])

	t := Table{
		ID: id, Title: title,
		Note:   fmt.Sprintf("k=%d fat tree (%d hosts), ECMP single path per flow; normalized to serial low-bw", k, k*k*k/4),
		Header: []string{"network", "throughput(norm)", "stddev"},
	}
	t.Rows = append(t.Rows, []Cell{label(names[0]), f2(1.0), f2(0)})
	for i := 1; i < len(nets); i++ {
		mean, std := meanStd(vals[i*trialCount : (i+1)*trialCount])
		t.Rows = append(t.Rows, []Cell{label(names[i]), f2(mean / base), f2(std / base)})
	}
	return t
}

func runFig6a(p Params) Table {
	return ecmpFigure("fig6a", "All-to-all throughput, ECMP (paper Fig. 6a)", p,
		func(tp *topo.Topology, _ *rand.Rand) []route.Commodity {
			return workload.AllToAllCommodities(tp, 0) // network-limited rates
		})
}

func runFig6b(p Params) Table {
	return ecmpFigure("fig6b", "Permutation throughput, ECMP (paper Fig. 6b)", p,
		func(tp *topo.Topology, rng *rand.Rand) []route.Commodity {
			return workload.PermutationCommodities(tp, 0, rng) // network-limited
		})
}

// sweepNet is one row of a K-sweep figure (fig6c, fig8c).
type sweepNet struct {
	name   string
	planes int
	net    func() *topo.Topology
}

// kSweep runs a K-sweep figure: per network, pattern's commodities over
// the first K of each commodity's K-shortest paths, for each K in ks.
// pattern runs serially in network order. A network's cells share one
// Yen run to the largest K, made by whichever of them runs first.
//
// The table has one row per network and one column per K, normalized to
// the saturated (largest K) value of nets[0], the serial low-bandwidth
// network, with a * on the first K reaching 95% of the row's plane count.
func (p Params) kSweep(t Table, ks []int, nets []sweepNet, pattern func(*topo.Topology) []route.Commodity) Table {
	var cells []lpCell
	for _, n := range nets {
		tp := n.net()
		cs := pattern(tp)
		yen := sync.OnceValue(func() [][]graph.Path {
			return route.KSPPathsSeeded(tp.G, cs, ks[len(ks)-1], p.Seed)
		})
		for _, k := range ks {
			cells = append(cells, lpCell{
				net:     func() *topo.Topology { return tp },
				traffic: func(tp *topo.Topology) (*graph.Graph, []route.Commodity) { return tp.G, cs },
				paths: func(*graph.Graph, []route.Commodity) [][]graph.Path {
					paths := make([][]graph.Path, len(cs))
					for j, ps := range yen() {
						paths[j] = ps[:min(k, len(ps))]
					}
					return paths
				},
				solver: "gk-fixed",
				k:      k,
			})
		}
	}
	vals := p.solveAll(t.ID, cells)

	t.Header = []string{"network"}
	for _, k := range ks {
		t.Header = append(t.Header, fmt.Sprintf("K=%d", k))
	}
	base := vals[len(ks)-1]
	for i, n := range nets {
		row := []Cell{label(n.name)}
		circled := false
		for _, v := range vals[i*len(ks) : (i+1)*len(ks)] {
			cell := f2(v / base)
			cell.star = !circled && cell.V >= 0.95*float64(n.planes)
			circled = circled || cell.star
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func runFig6c(p Params) Table {
	k := ftArity(p.Scale)
	nets := []sweepNet{
		{"serial low-bw", 1, p.fatTree(1, 100)},
		{"parallel 2x", 2, p.fatTree(2, 100)},
		{"parallel 4x", 4, p.fatTree(4, 100)},
	}
	if p.Scale == ScaleFull {
		nets = append(nets, sweepNet{"parallel 8x", 8, p.fatTree(8, 100)})
	}
	// One permutation RNG, drawn from in network order.
	rng := rand.New(rand.NewSource(p.Seed))
	return p.kSweep(Table{
		ID:    "fig6c",
		Title: "Single-path vs multi-path permutation throughput (paper Fig. 6c)",
		Note: fmt.Sprintf("k=%d fat tree, MPTCP+KSP; normalized to saturated serial low-bw; "+
			"circled point = first K reaching 95%% of the plane count", k),
	}, []int{1, 2, 4, 8, 16, 32}, nets, func(tp *topo.Topology) []route.Commodity {
		return workload.PermutationCommodities(tp, 100, rng)
	})
}

func runFig7(p Params) Table {
	sw, deg, _ := jfSize(p.Scale)
	planeCounts := []int{2, 4, 8}
	cell := func(net func() *topo.Topology) lpCell {
		return lpCell{net: net, traffic: func(tp *topo.Topology) (*graph.Graph, []route.Commodity) {
			return workload.RackAllToAll(tp, 10)
		}, solver: "gk-free"}
	}
	cells := []lpCell{cell(p.jellyfish(1, 100, false))}
	for _, n := range planeCounts {
		cells = append(cells, cell(p.jellyfish(1, float64(n)*100, false)), cell(p.jellyfish(n, 100, true)))
	}
	vals := p.solveAll("fig7", cells)
	base := vals[0]

	t := Table{
		ID:    "fig7",
		Title: "Ideal rack-level all-to-all throughput on Jellyfish (paper Fig. 7)",
		Note: fmt.Sprintf("%d racks, degree %d; no path constraint (network-core capacity); "+
			"normalized to serial low-bw", sw, deg),
		Header: []string{"network", "planes", "throughput(norm)", "vs serial high"},
	}
	t.Rows = append(t.Rows, []Cell{label("serial low-bw"), count(1), f2(1.0), {}})
	for i, n := range planeCounts {
		high, het := vals[1+2*i], vals[2+2*i]
		t.Rows = append(t.Rows, []Cell{label("serial high-bw"), num(float64(n), "(%.0fx speed)"), f2(high / base), f2(1.0)})
		t.Rows = append(t.Rows, []Cell{label("parallel heterogeneous"), count(n), f2(het / base), f2(het / high)})
	}
	return t
}

// jellyfishKSP runs fig8a/fig8b: a pattern routed over 8-way KSP.
func jellyfishKSP(id, title string, p Params, pattern func(*topo.Topology) []route.Commodity) Table {
	sw, deg, hps := jfSize(p.Scale)
	const kWays = 8
	planeCounts := []int{2, 4, 8}
	cell := func(net func() *topo.Topology) lpCell {
		return lpCell{
			net:     net,
			traffic: func(tp *topo.Topology) (*graph.Graph, []route.Commodity) { return tp.G, pattern(tp) },
			// Ties are seeded per host pair, not per commodity index as
			// route.KSPPathsSeeded does: the published fig8b cells rest on it.
			paths: func(g *graph.Graph, cs []route.Commodity) [][]graph.Path {
				return route.AcrossPlanes(g, g.PlaneMasks(), cs, kWays, func(i int) int64 {
					return p.Seed + int64(cs[i].Src)*1_000_003 + int64(cs[i].Dst)
				})
			},
			solver: "gk-fixed",
			k:      kWays,
		}
	}
	cells := []lpCell{cell(p.jellyfish(1, 100, false))}
	for _, n := range planeCounts {
		cells = append(cells, cell(p.jellyfish(n, 100, false)), cell(p.jellyfish(n, 100, true)))
	}
	vals := p.solveAll(id, append(cells, cell(p.jellyfish(1, 200, false))))
	base := vals[0]

	t := Table{
		ID: id, Title: title,
		Note: fmt.Sprintf("Jellyfish %dsw x (%d hosts + deg %d), default %d-way KSP; normalized to serial low-bw",
			sw, hps, deg, kWays),
		Header: []string{"network", "planes", "throughput(norm)"},
	}
	t.Rows = append(t.Rows, []Cell{label("serial low-bw"), count(1), f2(1.0)})
	for i, n := range planeCounts {
		homo, het := vals[1+2*i], vals[2+2*i]
		t.Rows = append(t.Rows, []Cell{label("parallel homogeneous"), count(n), f2(homo / base)})
		t.Rows = append(t.Rows, []Cell{label("parallel heterogeneous"), count(n), f2(het / base)})
	}
	t.Rows = append(t.Rows, []Cell{label("serial high-bw"), num(2, "(%.0fx speed)"), f2(vals[len(vals)-1] / base)})
	return t
}

func runFig8a(p Params) Table {
	return jellyfishKSP("fig8a", "All-to-all throughput, 8-way KSP (paper Fig. 8a)", p, func(tp *topo.Topology) []route.Commodity {
		return workload.AllToAllCommodities(tp, 100.0/float64(tp.NumHosts()-1))
	})
}

func runFig8b(p Params) Table {
	return jellyfishKSP("fig8b", "Permutation throughput, 8-way KSP (paper Fig. 8b)", p, func(tp *topo.Topology) []route.Commodity {
		return workload.PermutationCommodities(tp, 100, rand.New(rand.NewSource(p.Seed)))
	})
}

func runFig8c(p Params) Table {
	return p.kSweep(Table{
		ID:    "fig8c",
		Title: "Multipath performance scaling on Jellyfish (paper Fig. 8c)",
		Note:  "permutation traffic; normalized to saturated serial low-bw; * = first K at 95% of plane count",
	}, []int{1, 2, 4, 8, 16, 32}, []sweepNet{
		{"serial low-bw", 1, p.jellyfish(1, 100, false)},
		{"parallel homo 2x", 2, p.jellyfish(2, 100, false)},
		{"parallel homo 4x", 4, p.jellyfish(4, 100, false)},
		{"parallel hetero 4x", 4, p.jellyfish(4, 100, true)},
	}, func(tp *topo.Topology) []route.Commodity {
		// Each network draws its permutation from its own Seed RNG.
		return workload.PermutationCommodities(tp, 100, rand.New(rand.NewSource(p.Seed)))
	})
}
