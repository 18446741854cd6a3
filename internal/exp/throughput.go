package exp

import (
	"fmt"
	"math/rand"

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

// ecmpThroughput measures the achieved total throughput under per-flow
// ECMP: every commodity is pinned to its hash-selected path and rates are
// allocated max-min fairly (what a fair transport converges to on fixed
// routes). Commodities carry zero demand, i.e. rates are network-limited.
func ecmpThroughput(tp *topo.Topology, cs []route.Commodity, seed uint64) float64 {
	paths := route.ECMPPaths(tp.G, cs, seed)
	return mcf.MaxMinPinned(tp.G, cs, paths).Total
}

// runECMPFigure runs fig6a/fig6b: a traffic pattern under ECMP across
// plane counts, normalized to the serial low-bandwidth network.
func runECMPFigure(id, title string, p Params, pattern func(*topo.Topology, *rand.Rand) []route.Commodity) Table {
	k := ftArity(p.Scale)
	planeCounts := []int{2, 4, 8}

	measure := func(tp *topo.Topology, trial int64) float64 {
		rng := rand.New(rand.NewSource(p.Seed + trial))
		cs := pattern(tp, rng)
		return ecmpThroughput(tp, cs, uint64(p.Seed+trial*7919))
	}
	trials := func(tp *topo.Topology) (mean, std float64) {
		var vals []float64
		for trial := int64(0); trial < trialCount; trial++ {
			vals = append(vals, measure(tp, trial))
		}
		return meanStd(vals)
	}

	// Every network is an independent cell: it builds its own topology
	// and derives all randomness from (p.Seed, trial), so the cells can
	// run concurrently and the stats land in per-cell slots.
	type cell struct {
		name  string
		build func() *topo.Topology
	}
	cells := []cell{
		{"serial low-bw (1x100G)", func() *topo.Topology { return topo.FatTreeSet(k, 8, 100).SerialLow }},
	}
	for _, n := range planeCounts {
		cells = append(cells, cell{
			fmt.Sprintf("parallel %dx100G", n),
			func() *topo.Topology { return topo.FatTreeSet(k, n, 100).ParallelHomo },
		})
	}
	cells = append(cells, cell{
		"serial high-bw (1x800G)",
		func() *topo.Topology { return topo.FatTreeSet(k, 8, 100).SerialHigh },
	})

	type stat struct{ mean, std float64 }
	stats := make([]stat, len(cells))
	par.Do(len(cells), func(i int) {
		m, s := trials(cells[i].build())
		stats[i] = stat{m, s}
	})
	base := stats[0].mean

	t := Table{
		ID: id, Title: title,
		Note:   fmt.Sprintf("k=%d fat tree (%d hosts), ECMP single path per flow; normalized to serial low-bw", k, k*k*k/4),
		Header: []string{"network", "throughput(norm)", "stddev"},
	}
	t.Rows = append(t.Rows, []Cell{label(cells[0].name), f2(1.0), f2(0)})
	for i := 1; i < len(cells); i++ {
		t.Rows = append(t.Rows, []Cell{label(cells[i].name), f2(stats[i].mean / base), f2(stats[i].std / base)})
	}
	return t
}

func runFig6a(p Params) Table {
	return runECMPFigure("fig6a", "All-to-all throughput, ECMP (paper Fig. 6a)", p,
		func(tp *topo.Topology, _ *rand.Rand) []route.Commodity {
			return workload.AllToAllCommodities(tp, 0) // network-limited rates
		})
}

func runFig6b(p Params) Table {
	return runECMPFigure("fig6b", "Permutation throughput, ECMP (paper Fig. 6b)", p,
		func(tp *topo.Topology, rng *rand.Rand) []route.Commodity {
			return workload.PermutationCommodities(tp, 0, rng) // network-limited
		})
}

// kspSweep measures permutation throughput across multipath degrees. The
// K-path sets are prefixes of the K=maxK set, so Yen runs once per pair.
// rec, when non-nil, observes every solver result (for telemetry).
func kspSweep(tp *topo.Topology, cs []route.Commodity, ks []int, eps float64, seed int64, rec func(k int, r mcf.Result)) []float64 {
	maxK := ks[len(ks)-1]
	full := route.KSPPathsSeeded(tp.G, cs, maxK, seed)
	out := make([]float64, len(ks))
	for i, k := range ks {
		paths := make([][]graph.Path, len(full))
		for j, ps := range full {
			if len(ps) > k {
				ps = ps[:k]
			}
			paths[j] = ps
		}
		r := mcf.FixedPaths(tp.G, cs, paths, mcf.Options{Epsilon: eps})
		if rec != nil {
			rec(k, r)
		}
		out[i] = r.Lambda
	}
	return out
}

// sweepNet is one row of a K-sweep figure (fig6c, fig8c).
type sweepNet struct {
	name   string
	planes int
	hetero bool
}

// pick returns the row's network from a set built with its plane count.
func (n sweepNet) pick(s topo.NetworkSet) *topo.Topology {
	switch {
	case n.planes == 1:
		return s.SerialLow
	case n.hetero:
		return s.ParallelHetero
	}
	return s.ParallelHomo
}

// kSweepTable lays out a K-sweep figure: one row per network, one column
// per K, normalized to the saturated (largest K) value of nets[0], the
// serial low-bandwidth network, with a * on the first K reaching 95% of
// the row's plane count.
func kSweepTable(t Table, ks []int, nets []sweepNet, vals [][]float64) Table {
	t.Header = []string{"network"}
	for _, k := range ks {
		t.Header = append(t.Header, fmt.Sprintf("K=%d", k))
	}
	base := vals[0][len(vals[0])-1]
	for i, net := range nets {
		row := []Cell{label(net.name)}
		circled := false
		for _, v := range vals[i] {
			cell := f2(v / base)
			cell.star = !circled && cell.V >= 0.95*float64(net.planes)
			circled = circled || cell.star
			row = append(row, cell)
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func runFig6c(p Params) Table {
	k := ftArity(p.Scale)
	ks := []int{1, 2, 4, 8, 16, 32}
	nets := []sweepNet{
		{name: "serial low-bw", planes: 1},
		{name: "parallel 2x", planes: 2},
		{name: "parallel 4x", planes: 4},
	}
	if p.Scale == ScaleFull {
		nets = append(nets, sweepNet{name: "parallel 8x", planes: 8})
	}

	// The permutation RNG is shared across networks, so commodity
	// generation must stay in serial net order; the expensive KSP+LP
	// sweeps are then independent per network and fan out.
	rng := rand.New(rand.NewSource(p.Seed))
	type prep struct {
		tp *topo.Topology
		cs []route.Commodity
	}
	preps := make([]prep, len(nets))
	for i, net := range nets {
		tp := net.pick(topo.FatTreeSet(k, net.planes, 100))
		preps[i] = prep{tp, workload.PermutationCommodities(tp, 100, rng)}
	}
	allVals := make([][]float64, len(nets))
	par.Do(len(nets), func(i int) {
		allVals[i] = kspSweep(preps[i].tp, preps[i].cs, ks, 0.08, p.Seed, func(k int, r mcf.Result) {
			p.recordSolver("fig6c", "gk-fixed", k, r)
		})
	})
	return kSweepTable(Table{
		ID:    "fig6c",
		Title: "Single-path vs multi-path permutation throughput (paper Fig. 6c)",
		Note: fmt.Sprintf("k=%d fat tree, MPTCP+KSP; normalized to saturated serial low-bw; "+
			"circled point = first K reaching 95%% of the plane count", k),
	}, ks, nets, allVals)
}

func runFig7(p Params) Table {
	sw, deg, hps := jfSize(p.Scale)
	planeCounts := []int{2, 4, 8}
	eps := 0.08

	ideal := func(tp *topo.Topology) float64 {
		g, cs := workload.RackAllToAll(tp, 10)
		r := mcf.Free(g, cs, mcf.Options{Epsilon: eps})
		p.recordSolver("fig7", "gk-free", 0, r)
		return r.Lambda
	}

	// Topology construction is cheap and shares the seed, so it stays
	// serial; the GK solves — one per network — fan out as cells.
	baseSet := topo.JellyfishSet(sw, deg, hps, 2, 100, p.Seed)
	tops := []*topo.Topology{baseSet.SerialLow}
	for _, n := range planeCounts {
		set := topo.JellyfishSet(sw, deg, hps, n, 100, p.Seed)
		tops = append(tops, set.SerialHigh, set.ParallelHetero)
	}
	vals := make([]float64, len(tops))
	par.Do(len(tops), func(i int) { vals[i] = ideal(tops[i]) })
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

// runJellyfishKSP runs fig8a/fig8b: a pattern routed over 8-way KSP.
func runJellyfishKSP(id, title string, p Params, allToAll bool) Table {
	sw, deg, hps := jfSize(p.Scale)
	const kWays = 8
	planeCounts := []int{2, 4, 8}
	eps := 0.08

	measure := func(tp *topo.Topology) float64 {
		var cs []route.Commodity
		if allToAll {
			cs = workload.AllToAllCommodities(tp, 100.0/float64(tp.NumHosts()-1))
		} else {
			rng := rand.New(rand.NewSource(p.Seed))
			cs = workload.PermutationCommodities(tp, 100, rng)
		}
		// Ties are seeded per host pair, not per commodity index as
		// route.KSPPathsSeeded does: the published fig8b cells rest on it.
		paths := route.AcrossPlanes(tp.G, tp.G.PlaneMasks(), cs, kWays, func(i int) int64 {
			return p.Seed + int64(cs[i].Src)*1_000_003 + int64(cs[i].Dst)
		})
		return mcf.FixedPaths(tp.G, cs, paths, mcf.Options{Epsilon: eps}).Lambda
	}

	// Each measure() cell builds its own RNG, path sets and solver
	// state against a read-only topology, so all networks run at once.
	baseSet := topo.JellyfishSet(sw, deg, hps, 2, 100, p.Seed)
	tops := []*topo.Topology{baseSet.SerialLow}
	for _, n := range planeCounts {
		set := topo.JellyfishSet(sw, deg, hps, n, 100, p.Seed)
		tops = append(tops, set.ParallelHomo, set.ParallelHetero)
	}
	tops = append(tops, baseSet.SerialHigh)
	vals := make([]float64, len(tops))
	par.Do(len(tops), func(i int) { vals[i] = measure(tops[i]) })
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
	return runJellyfishKSP("fig8a", "All-to-all throughput, 8-way KSP (paper Fig. 8a)", p, true)
}

func runFig8b(p Params) Table {
	return runJellyfishKSP("fig8b", "Permutation throughput, 8-way KSP (paper Fig. 8b)", p, false)
}

func runFig8c(p Params) Table {
	sw, deg, hps := jfSize(p.Scale)
	ks := []int{1, 2, 4, 8, 16, 32}
	nets := []sweepNet{
		{name: "serial low-bw", planes: 1},
		{name: "parallel homo 2x", planes: 2},
		{name: "parallel homo 4x", planes: 4},
		{name: "parallel hetero 4x", planes: 4, hetero: true},
	}

	// Unlike fig6c, each network cell seeds its own permutation RNG from
	// p.Seed, so the whole cell — topology, commodities, sweep — is
	// self-contained and cells run concurrently.
	allVals := make([][]float64, len(nets))
	par.Do(len(nets), func(i int) {
		net := nets[i]
		tp := net.pick(topo.JellyfishSet(sw, deg, hps, max(net.planes, 2), 100, p.Seed))
		rng := rand.New(rand.NewSource(p.Seed))
		cs := workload.PermutationCommodities(tp, 100, rng)
		allVals[i] = kspSweep(tp, cs, ks, 0.08, p.Seed, func(k int, r mcf.Result) {
			p.recordSolver("fig8c", "gk-fixed", k, r)
		})
	})
	return kSweepTable(Table{
		ID:    "fig8c",
		Title: "Multipath performance scaling on Jellyfish (paper Fig. 8c)",
		Note:  "permutation traffic; normalized to saturated serial low-bw; * = first K at 95% of plane count",
	}, ks, nets, allVals)
}
