// Package pnet's benchmark suite regenerates every table and figure of
// the paper at reduced ("small") scale — one benchmark per artifact. Each
// benchmark runs the same code path as `pnetbench -exp <id>`; wall-clock
// time per iteration is the cost of regenerating that artifact.
//
//	go test -bench=. -benchmem
//
// Ablation benchmarks (BenchmarkAblation*) quantify the design choices
// called out in DESIGN.md §6.
package pnet

import (
	"math/rand"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"pnet/internal/exp"
	"pnet/internal/graph"
	"pnet/internal/mcf"
	"pnet/internal/par"
	"pnet/internal/route"
	"pnet/internal/sim"
	"pnet/internal/tcp"
	"pnet/internal/topo"
	"pnet/internal/workload"
)

func runExperiment(b *testing.B, id string) exp.Table {
	b.Helper()
	e, ok := exp.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var tab exp.Table
	for i := 0; i < b.N; i++ {
		tab = e.Run(exp.Params{Scale: exp.ScaleSmall, Seed: 1})
	}
	if len(tab.Rows) == 0 {
		b.Fatalf("%s produced no rows", id)
	}
	b.Logf("\n%s", tab.String())
	return tab
}

// lastFloat extracts the trailing float from a table cell like "7.29" or
// "2.00*"; used to surface one headline number per benchmark.
func lastFloat(cell string) float64 {
	cell = strings.TrimSuffix(cell, "*")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		return 0
	}
	return v
}

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B) { runExperiment(b, "table2") }
func BenchmarkFig6c(b *testing.B)  { runExperiment(b, "fig6c") }
func BenchmarkFig7(b *testing.B)   { runExperiment(b, "fig7") }
func BenchmarkFig8a(b *testing.B)  { runExperiment(b, "fig8a") }
func BenchmarkFig8b(b *testing.B)  { runExperiment(b, "fig8b") }
func BenchmarkFig8c(b *testing.B)  { runExperiment(b, "fig8c") }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "fig9") }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "fig11") }
func BenchmarkFig12(b *testing.B)  { runExperiment(b, "fig12") }
func BenchmarkFig13a(b *testing.B) { runExperiment(b, "fig13a") }
func BenchmarkFig13b(b *testing.B) { runExperiment(b, "fig13b") }
func BenchmarkFig13c(b *testing.B) { runExperiment(b, "fig13c") }
func BenchmarkFig14(b *testing.B)  { runExperiment(b, "fig14") }
func BenchmarkFigApp(b *testing.B) { runExperiment(b, "figapp") }

func BenchmarkFig6a(b *testing.B) {
	tab := runExperiment(b, "fig6a")
	// Headline: 8-plane all-to-all throughput (paper: ~8x).
	b.ReportMetric(lastFloat(tab.Rows[3][1]), "x-serial-low")
}

func BenchmarkFig6b(b *testing.B) {
	tab := runExperiment(b, "fig6b")
	// Headline: 8-plane permutation throughput (paper: barely above 1x).
	b.ReportMetric(lastFloat(tab.Rows[3][1]), "x-serial-low")
}

// --- Ablation benchmarks -------------------------------------------------

// BenchmarkAblationKSPvsPlanes measures the paper's N×8 rule directly:
// the multipath degree needed to reach 95% of an N-plane fat tree's
// capacity, reported as the saturating K per plane count.
func BenchmarkAblationKSPvsPlanes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, planes := range []int{1, 2, 4} {
			set := topo.FatTreeSet(8, planes, 100)
			tp := set.SerialLow
			if planes > 1 {
				tp = set.ParallelHomo
			}
			cs := workload.PermutationCommodities(tp, 100, rng(7))
			lambdaAt := func(k int) float64 {
				paths := route.KSPPathsSeeded(tp.G, cs, k, 3)
				return mcf.FixedPaths(tp.G, cs, paths, mcf.Options{Epsilon: 0.08}).Lambda
			}
			// Saturation is judged against the network's own K=64 value,
			// cancelling the GK approximation's systematic ~ε shortfall.
			ref := lambdaAt(64)
			satK := 0
			for _, k := range []int{4, 8, 16, 32} {
				if lambdaAt(k) >= 0.95*ref {
					satK = k
					break
				}
			}
			if satK == 0 {
				satK = 64
			}
			b.ReportMetric(float64(satK), "satK-"+strconv.Itoa(planes)+"planes")
		}
	}
}

// BenchmarkAblationGKvsExact compares the Garg–Könemann approximation
// against the exact simplex LP on a small instance and reports the ratio.
func BenchmarkAblationGKvsExact(b *testing.B) {
	set := topo.FatTreeSet(4, 2, 100)
	tp := set.ParallelHomo
	cs := workload.PermutationCommodities(tp, 100, rng(5))
	paths := route.KSPPaths(tp.G, cs, 8)
	exact, err := mcf.FixedPathsExact(tp.G, cs, paths)
	if err != nil {
		b.Fatal(err)
	}
	var ratio float64
	for i := 0; i < b.N; i++ {
		approx := mcf.FixedPaths(tp.G, cs, paths, mcf.Options{Epsilon: 0.05})
		ratio = approx.Lambda / exact.Lambda
	}
	b.ReportMetric(ratio, "gk/exact")
	if ratio < 0.85 || ratio > 1.001 {
		b.Fatalf("GK ratio %v out of tolerance", ratio)
	}
}

// BenchmarkAblationECMPvsRoundRobin compares ECMP hashing against
// round-robin plane rotation for permutation traffic on a 4-plane fat
// tree (both pinned single path; metric = achieved throughput ratio
// round-robin / ECMP).
func BenchmarkAblationECMPvsRoundRobin(b *testing.B) {
	set := topo.FatTreeSet(8, 4, 100)
	tp := set.ParallelHomo
	var ratio float64
	for i := 0; i < b.N; i++ {
		cs := workload.PermutationCommodities(tp, 0, rng(11))
		ecmpPaths := route.ECMPPaths(tp.G, cs, 9)
		ecmp := mcf.MaxMinPinned(tp.G, cs, ecmpPaths).Total

		// Round-robin: commodity i uses plane i mod planes, then the
		// deterministic shortest path within it.
		rrPaths := make([][]graph.Path, len(cs))
		masks := tp.G.PlaneMasks()
		for j, c := range cs {
			plane := j % tp.Planes
			ps := graph.KShortestPathsMasked(tp.G, c.Src, c.Dst, 1, masks[plane])
			rrPaths[j] = ps
		}
		rr := mcf.MaxMinPinned(tp.G, cs, rrPaths).Total
		ratio = rr / ecmp
	}
	b.ReportMetric(ratio, "rr/ecmp")
}

// BenchmarkAblationLowestHopPlane quantifies the heterogeneous P-Net's
// shortest-path advantage: mean hop count of best-across-planes paths vs
// plane-0-only paths.
func BenchmarkAblationLowestHopPlane(b *testing.B) {
	set := topo.ScaledJellyfish(24, 4, 100, 7)
	tp := set.ParallelHetero
	var best, p0 float64
	for i := 0; i < b.N; i++ {
		pairs := workload.RandomPairs(tp, 500, rng(3))
		bestSum, p0Sum := 0.0, 0.0
		mask := tp.G.PlaneMasks()[0]
		for _, pr := range pairs {
			bp, _ := graph.ShortestPath(tp.G, pr[0], pr[1])
			bestSum += float64(bp.Len())
			zp := graph.KShortestPathsMasked(tp.G, pr[0], pr[1], 1, mask)
			p0Sum += float64(zp[0].Len())
		}
		best = bestSum / float64(len(pairs))
		p0 = p0Sum / float64(len(pairs))
	}
	b.ReportMetric(best, "hops-best-plane")
	b.ReportMetric(p0, "hops-plane0")
}

// --- Hot-path benchmarks -------------------------------------------------
//
// These isolate the simulator's inner loops (event dispatch, the packet
// hop and GK phase work) from experiment setup, so regressions in any show
// up as ns/op and allocs/op rather than being buried in whole-figure
// times. `pnetstat summary -gobench` folds their output into the run
// report the perf gate compares.

// BenchmarkEngineEventLoop measures bare closure dispatch: 256 concurrent
// self-rescheduling timer chains drain exactly b.N events. Closure events
// live on the engine's one heap, so this is that heap at depth 256 and
// nothing else; a packet never takes this path (its tx-complete and its
// arrival ride the delay lanes). BenchmarkPacketHop measures that.
func BenchmarkEngineEventLoop(b *testing.B) {
	const chains = 256
	eng := sim.NewEngine()
	left := b.N - chains
	var tick func()
	tick = func() {
		if left > 0 {
			left--
			eng.After(sim.Microsecond, tick)
		}
	}
	for i := 0; i < chains && i < b.N; i++ {
		eng.After(sim.Time(i)*sim.Nanosecond, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
	b.StopTimer()
	if fired := eng.EventsFired(); fired != uint64(b.N) {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}

// BenchmarkPacketHop measures the unit every packet experiment is made
// of, one packet crossing one link: a tx-complete and an arrival through
// the engine, the drop-tail queue, and at the last hop the TCP receiver
// and the ACK it sends back. 64 long single-path TCP flows (a host
// permutation) share the 16-switch Jellyfish of the benchmark's
// bulk_mptcp workload and keep its queues full. An op is two events,
// which is one hop but for the few timer events; ns/hop and events/hop
// are the measured figures. allocs/op must stay 0: pools and the lanes
// are warm, and what a flow in steady state still allocates (a timer
// event when its RTO wakeup is re-armed) is a few bytes per op.
func BenchmarkPacketHop(b *testing.B) {
	tp := topo.JellyfishSet(16, 4, 4, 4, 100, 1).SerialLow
	d := workload.NewDriver(tp, sim.Config{}, tcp.Config{})
	for _, c := range workload.PermutationCommodities(tp, 1, rng(1)) {
		if _, err := d.StartFlow(c.Src, c.Dst, 1<<40, workload.Selection{Policy: workload.ECMP}, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	hops := func() (n int64) {
		for l := 0; l < d.Net.G.NumLinks(); l++ {
			n += d.Net.Stats(graph.LinkID(l)).TxPackets
		}
		return n
	}
	d.RunUntil(2 * sim.Millisecond) // past slow start; pools, queues and lane at size
	h0, e0 := hops(), d.Eng.EventsFired()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < 2*b.N; i++ {
		d.Eng.Step()
	}
	b.StopTimer()
	crossed := float64(hops() - h0)
	if crossed == 0 {
		b.Fatal("no packet crossed a link")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/crossed, "ns/hop")
	b.ReportMetric(float64(d.Eng.EventsFired()-e0)/crossed, "events/hop")
}

// BenchmarkGKSolverPhase measures one Garg–Könemann solve on a fixed
// 2-plane fat-tree instance and reports per-phase cost, the unit the
// solver's complexity bound is stated in.
func BenchmarkGKSolverPhase(b *testing.B) {
	set := topo.FatTreeSet(4, 2, 100)
	tp := set.ParallelHomo
	cs := workload.PermutationCommodities(tp, 100, rng(5))
	paths := route.KSPPaths(tp.G, cs, 8)
	var phases, iters int64
	var wall float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := mcf.FixedPaths(tp.G, cs, paths, mcf.Options{Epsilon: 0.1})
		phases += int64(r.Stats.Phases)
		iters += r.Stats.Iterations
		wall += r.Stats.Wall.Seconds()
	}
	b.StopTimer()
	if phases == 0 {
		b.Fatal("solver did no phases")
	}
	b.ReportMetric(float64(phases)/float64(b.N), "phases")
	b.ReportMetric(float64(iters)/float64(b.N), "iters")
	b.ReportMetric(wall*1e9/float64(phases), "ns/phase")
}

// --- Parallel execution benchmarks ---------------------------------------
//
// These measure the multicore sweep layer (internal/par): the same work
// run serially (-workers equivalent of 1) and at full width, with the
// serial/parallel wall-clock ratio reported as "speedup-x". The ratio is
// ~1.0 on a single-core runner and should exceed 2 on 4+ cores; it is a
// wall-clock quantity, so the perf gate records it without gating it.
// Neither benchmark calls ReportAllocs: goroutine fan-out makes allocs
// scheduling-dependent, and allocs_per_op is always gated.

// BenchmarkParallelSweep runs fig8c — self-contained (network, K) sweep
// cells, the experiment layer's canonical fan-out shape — serially and
// in parallel. The tables must match; the wall clocks should not.
func BenchmarkParallelSweep(b *testing.B) {
	e, ok := exp.ByID("fig8c")
	if !ok {
		b.Fatal("fig8c not registered")
	}
	run := func(workers int) (exp.Table, time.Duration) {
		par.SetLimit(workers)
		defer par.SetLimit(0)
		start := time.Now()
		tab := e.Run(exp.Params{Scale: exp.ScaleSmall, Seed: 1, Workers: workers})
		return tab, time.Since(start)
	}
	var serial, wide time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, sd := run(1)
		wt, wd := run(runtime.NumCPU())
		serial += sd
		wide += wd
		if st.String() != wt.String() {
			b.Fatal("serial and parallel sweeps disagree")
		}
	}
	b.StopTimer()
	if wide > 0 {
		b.ReportMetric(float64(serial)/float64(wide), "speedup-x")
	}
}

// BenchmarkParallelKSP runs the per-commodity KSP fan-out (route's
// hottest path-computation loop, including the per-(src,dst) memo and
// the cached plane masks) serially and in parallel over a permutation's
// worth of commodities.
func BenchmarkParallelKSP(b *testing.B) {
	set := topo.FatTreeSet(8, 4, 100)
	tp := set.ParallelHomo
	cs := workload.PermutationCommodities(tp, 0, rng(7))
	run := func(workers int) ([][]graph.Path, time.Duration) {
		par.SetLimit(workers)
		defer par.SetLimit(0)
		start := time.Now()
		paths := route.KSPPaths(tp.G, cs, 16)
		return paths, time.Since(start)
	}
	var serial, wide time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sp, sd := run(1)
		wp, wd := run(runtime.NumCPU())
		serial += sd
		wide += wd
		for j := range sp {
			if len(sp[j]) != len(wp[j]) {
				b.Fatal("serial and parallel KSP disagree")
			}
		}
	}
	b.StopTimer()
	if wide > 0 {
		b.ReportMetric(float64(serial)/float64(wide), "speedup-x")
	}
}

// --- Solver hot-path benchmarks ------------------------------------------
//
// These isolate the zero-allocation solver path introduced with the CSR
// frozen view (DESIGN.md "Solver hot path"): the Free solve end to end,
// one warm oracle tree, and serial Yen's on the frozen view. FreeSolve
// and KSPFrozen are the before/after headline numbers quoted in the
// README; OracleTree's allocs/op is the regression guard for the scratch
// space (always gated by the perf gate).

// BenchmarkFreeSolve measures the unrestricted Garg–Könemann solve on the
// Figure 7 instance shape: rack-level all-to-all on a 2-plane Jellyfish,
// where the Dijkstra oracle and its path caches dominate.
func BenchmarkFreeSolve(b *testing.B) {
	set := topo.JellyfishSet(12, 3, 2, 2, 100, 7)
	g, cs := workload.RackAllToAll(set.ParallelHomo, 10)
	var lambda float64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lambda = mcf.Free(g, cs, mcf.Options{Epsilon: 0.08}).Lambda
	}
	b.StopTimer()
	if lambda == 0 {
		b.Fatal("solve failed")
	}
	b.ReportMetric(lambda, "lambda")
}

// BenchmarkOracleTree measures one warm full-tree Dijkstra on the frozen
// view — the unit of work behind every oracle refresh. allocs/op must be
// exactly 0 once the scratch space is warm.
func BenchmarkOracleTree(b *testing.B) {
	tp := topo.FatTreeSet(8, 2, 100).ParallelHomo
	fz := tp.G.Frozen()
	r := rng(3)
	w := make([]float64, fz.NumLinks())
	for i := range w {
		w[i] = 0.5 + r.Float64()
	}
	s := graph.NewScratch()
	fz.Dijkstra(s, 0, w, -1) // warm: grow dist/parent/heap
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fz.Dijkstra(s, 0, w, -1)
	}
	b.StopTimer()
	if !s.Reached(graph.NodeID(fz.NumNodes() - 1)) {
		b.Fatal("tree incomplete")
	}
}

// BenchmarkKSPFrozen measures serial Yen's algorithm (k=8) over 32
// commodities on the frozen view — the spur-search loop that the CSR BFS
// and pooled scratch accelerate, without the parallel fan-out of
// BenchmarkParallelKSP masking per-search cost.
func BenchmarkKSPFrozen(b *testing.B) {
	tp := topo.FatTreeSet(8, 2, 100).ParallelHomo
	cs := workload.PermutationCommodities(tp, 0, rng(7))[:32]
	par.SetLimit(1)
	defer par.SetLimit(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		paths := route.KSPPaths(tp.G, cs, 8)
		if len(paths) != len(cs) {
			b.Fatal("missing path sets")
		}
	}
}

func rng(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
