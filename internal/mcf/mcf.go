// Package mcf computes maximum concurrent multicommodity flow — the
// "ideal throughput" metric the paper obtains from an LP solver (§5.1.1).
//
// Given commodities (src, dst, demand), the max concurrent flow is the
// largest λ such that every commodity can simultaneously ship λ×demand
// through the network without exceeding any link capacity. Three routing
// regimes are supported, matching the paper's methodology:
//
//   - Pinned: every commodity is restricted to a single given path (the
//     model of per-flow ECMP). Solved exactly in closed form.
//   - FixedPaths: every commodity may split flow across a given path set
//     (the model of MPTCP over K shortest paths). Solved by the
//     Garg–Könemann/Fleischer multiplicative-weights FPTAS, or exactly by
//     the simplex solver for small instances.
//   - Free: no path restriction (the paper's "ideal throughput under no
//     path constraint", Figure 7). Garg–Könemann with a Dijkstra oracle.
package mcf

import (
	"math"

	"pnet/internal/graph"
	"pnet/internal/par"
	"pnet/internal/route"
)

// Options configures the approximation solvers.
type Options struct {
	// Epsilon is the Garg–Könemann accuracy parameter; the returned λ is
	// at least (1-O(ε)) times optimal. Zero selects the default 0.10.
	Epsilon float64
}

func (o Options) epsilon() float64 {
	if o.Epsilon <= 0 {
		return 0.10
	}
	return o.Epsilon
}

// SolverStats instruments an approximation-solver run: how much work the
// Garg–Könemann iteration did. The telemetry layer (internal/obs) exports
// these per invocation, with the wall time its caller measured.
type SolverStats struct {
	// Phases counts completed GK phases, summed over rescaling attempts.
	Phases int
	// Iterations counts inner augmentations (oracle calls that shipped
	// flow), summed over rescaling attempts.
	Iterations int64
	// Attempts counts adaptive demand-rescaling runs of the core solver.
	Attempts int
}

// Result reports a max-concurrent-flow computation.
type Result struct {
	// Lambda is the concurrent throughput multiplier: every commodity can
	// ship Lambda×Demand simultaneously.
	Lambda float64
	// TotalThroughput is Lambda times the sum of demands.
	TotalThroughput float64
	// Unrouted counts commodities that had no usable path. If nonzero,
	// Lambda is necessarily 0 unless those commodities were skipped; they
	// are included here so callers can detect partitioned inputs.
	Unrouted int
	// Stats holds solver instrumentation; zero for the closed-form
	// (Pinned) and exact (simplex) paths.
	Stats SolverStats
}

func result(lambda float64, cs []route.Commodity, unrouted int) Result {
	var sum float64
	for _, c := range cs {
		sum += c.Demand
	}
	return Result{Lambda: lambda, TotalThroughput: lambda * sum, Unrouted: unrouted}
}

// Pinned computes the exact max concurrent flow when each commodity is
// pinned to one path: λ = min over links of capacity/load, where load sums
// the demands of commodities crossing the link.
func Pinned(g *graph.Graph, cs []route.Commodity, paths [][]graph.Path) Result {
	if len(paths) != len(cs) {
		panic("mcf: paths/commodities length mismatch")
	}
	load := make([]float64, g.NumLinks())
	unrouted := 0
	for i, ps := range paths {
		if len(ps) == 0 {
			unrouted++
			continue
		}
		for _, l := range ps[0].Links {
			load[l] += cs[i].Demand
		}
	}
	if unrouted > 0 {
		return result(0, cs, unrouted)
	}
	lambda := math.Inf(1)
	for i, ld := range load {
		if ld > 0 {
			if r := g.Link(graph.LinkID(i)).Capacity / ld; r < lambda {
				lambda = r
			}
		}
	}
	if math.IsInf(lambda, 1) {
		lambda = 0
	}
	return result(lambda, cs, 0)
}

// FixedPaths computes max concurrent flow where each commodity may split
// across its given path set, using Garg–Könemann. Commodities with an
// empty path set make the instance infeasible (λ=0).
//
// The oracle scans a precomputed flat path→link incidence (CSR layout:
// per-commodity path offsets into one contiguous link array) instead of
// re-walking the [][]Path slices, so a warm oracle call is a single
// cache-linear sweep with zero allocations. Tie-breaking (first path
// with the strictly smallest length wins, in the caller's path order)
// is unchanged.
func FixedPaths(g *graph.Graph, cs []route.Commodity, paths [][]graph.Path, opts Options) Result {
	if len(paths) != len(cs) {
		panic("mcf: paths/commodities length mismatch")
	}
	for _, ps := range paths {
		if len(ps) == 0 {
			return result(0, cs, countEmpty(paths))
		}
	}
	o := newFixedOracle(paths)
	lambda, stats := adaptiveGK(g.Frozen(), cs, o.pick, opts.epsilon())
	r := result(lambda, cs, 0)
	r.Stats = stats
	return r
}

// fixedOracle holds the flattened path→link incidence for a FixedPaths
// solve. Commodity j's paths are pathStart[commStart[j]:commStart[j+1]+1]
// offsets into links.
type fixedOracle struct {
	commStart []int32        // len(cs)+1, indexes pathStart
	pathStart []int32        // len(total paths)+1, indexes links
	links     []graph.LinkID // all path links, concatenated
}

func newFixedOracle(paths [][]graph.Path) *fixedOracle {
	np, nl := 0, 0
	for _, ps := range paths {
		np += len(ps)
		for _, p := range ps {
			nl += len(p.Links)
		}
	}
	o := &fixedOracle{
		commStart: make([]int32, len(paths)+1),
		pathStart: make([]int32, 0, np+1),
		links:     make([]graph.LinkID, 0, nl),
	}
	for j, ps := range paths {
		o.commStart[j] = int32(len(o.pathStart))
		for _, p := range ps {
			o.pathStart = append(o.pathStart, int32(len(o.links)))
			o.links = append(o.links, p.Links...)
		}
	}
	o.commStart[len(paths)] = int32(len(o.pathStart))
	o.pathStart = append(o.pathStart, int32(len(o.links)))
	return o
}

func (o *fixedOracle) pick(j int, length []float64) (graph.Path, bool) {
	lo, hi := o.commStart[j], o.commStart[j+1]
	best, bestLen := int32(-1), math.Inf(1)
	for p := lo; p < hi; {
		a, b := o.pathStart[p], o.pathStart[p+1]
		if p+1 < hi {
			if c := o.pathStart[p+2]; c-b == b-a {
				// Two paths of one length share a loop: two independent
				// add chains, each in its own path's link order, so each
				// sum is the plain loop's bit for bit.
				x, y := o.links[a:b], o.links[b:c]
				y = y[:len(x)] // drops y's bounds check in the loop
				var lx, ly float64
				for i, e := range x {
					lx += length[e]
					ly += length[y[i]]
				}
				if lx < bestLen {
					best, bestLen = p, lx
				}
				if ly < bestLen {
					best, bestLen = p+1, ly
				}
				p += 2
				continue
			}
		}
		var l float64
		for _, e := range o.links[a:b] {
			l += length[e]
		}
		if l < bestLen {
			best, bestLen = p, l
		}
		p++
	}
	// The winner's links are the slice the scan just read, still in
	// cache; capped so that an append cannot run into the next path.
	a, b := o.pathStart[best], o.pathStart[best+1]
	return graph.Path{Links: o.links[a:b:b]}, true
}

// Free computes max concurrent flow with no path restriction ("ideal"
// capacity), using Garg–Könemann with a lazy Dijkstra shortest-path
// oracle on the CSR frozen view.
//
// Source amortization happens where it cannot perturb the solve: the
// reachability probe runs one BFS sweep per unique source (serving every
// commodity that shares it) instead of one per commodity, and all of a
// solve's Dijkstra refreshes share one scratch space, so a warm refresh
// allocates nothing. The refreshes themselves stay per-(consult,
// commodity): GK interleaves an augmentation between any two oracle
// consults, so two same-source commodities never see the same length
// vector, and batching their cache refreshes from one tree would change
// which of several equal-length shortest paths each one augments — see
// DESIGN.md "Solver hot path" for why that breaks trajectory
// reproducibility.
func Free(g *graph.Graph, cs []route.Commodity, opts Options) Result {
	fz := g.Frozen()
	eps := opts.epsilon()
	o := &freeOracle{fz: fz, cs: cs, eps: eps,
		scratch: graph.NewScratch(), cache: make([]freeCache, len(cs))}
	// Probe reachability first so unroutable commodities are reported
	// rather than looping forever. One full BFS per unique source covers
	// all its commodities — reachability is a property of the tree, so
	// this is identical to per-commodity probes — and the per-source
	// sweeps only read the frozen view, so they fan out across cores.
	// The GK phase loop itself stays sequential — each phase's length
	// function depends on every earlier routing decision, and reordering
	// them would change the result.
	var srcs []graph.NodeID
	members := map[graph.NodeID][]int{}
	for j, c := range cs {
		if _, ok := members[c.Src]; !ok {
			srcs = append(srcs, c.Src)
		}
		members[c.Src] = append(members[c.Src], j)
	}
	unrouted := 0
	for _, bad := range par.Map(len(srcs), func(i int) int {
		s := graph.GetScratch()
		defer graph.PutScratch(s)
		fz.BFS(s, srcs[i], -1, nil, nil)
		bad := 0
		for _, j := range members[srcs[i]] {
			// A degenerate src==dst commodity counts as unrouted, as it
			// always has (BFS marks the source reached, a per-pair probe
			// rejects the empty path).
			if d := cs[j].Dst; d == srcs[i] || !s.Reached(d) {
				bad++
			}
		}
		return bad
	}) {
		unrouted += bad
	}
	if unrouted > 0 {
		return result(0, cs, unrouted)
	}
	lambda, stats := adaptiveGK(fz, cs, o.paths, eps)
	r := result(lambda, cs, 0)
	r.Stats = stats
	return r
}

// freeOracle is the Free solver's lazy shortest-path oracle state: one
// path cache per commodity (link buffers are recycled across refreshes)
// and one shared Dijkstra scratch space. After the first few refreshes
// have grown the buffers, a warm oracle call — cached or refreshing —
// performs zero allocations (enforced by TestFreeOracleZeroAlloc).
type freeOracle struct {
	fz      *graph.Frozen
	cs      []route.Commodity
	eps     float64
	scratch *graph.Scratch
	cache   []freeCache
}

type freeCache struct {
	links        []graph.LinkID
	lenAtCompute float64
	valid        bool
}

func (o *freeOracle) paths(j int, length []float64) (graph.Path, bool) {
	c := &o.cache[j]
	if c.valid {
		var cur float64
		for _, e := range c.links {
			cur += length[e]
		}
		if cur <= (1+o.eps)*c.lenAtCompute {
			if cur < c.lenAtCompute {
				c.lenAtCompute = cur
			}
			return graph.Path{Links: c.links}, true
		}
	}
	src, dst := o.cs[j].Src, o.cs[j].Dst
	if src == dst || !o.fz.Dijkstra(o.scratch, src, length, dst) {
		return graph.Path{}, false
	}
	c.links = o.fz.AppendPath(o.scratch, src, dst, c.links[:0])
	c.lenAtCompute = o.scratch.Dist(dst)
	c.valid = true
	return graph.Path{Links: c.links}, true
}

// adaptiveGK wraps gargKonemann with demand rescaling. GK's accuracy
// degrades when termination happens within the first few phases (λ much
// smaller than the demand scale) and its runtime explodes when λ is much
// larger than the demand scale. The driver first scales demands by an
// upper bound on λ (source-capacity bound), then re-runs with the measured
// estimate if too few phases completed for the requested accuracy.
//
// The oracle closure owns whatever scratch state it needs (path caches,
// Dijkstra scratch, flat incidence). Each concurrent solve — one per
// sweep-cell worker — builds its own oracle, so no scratch is ever
// shared across workers.
func adaptiveGK(fz *graph.Frozen, cs []route.Commodity, oracle func(int, []float64) (graph.Path, bool), eps float64) (float64, SolverStats) {
	var stats SolverStats
	// Upper bound: commodity j cannot exceed capOut(src)/demand.
	ub := math.Inf(1)
	for _, c := range cs {
		var capOut float64
		for _, id := range fz.OutLinks(c.Src) {
			if fz.LinkUp(id) {
				capOut += fz.LinkCap(id)
			}
		}
		if b := capOut / c.Demand; b < ub {
			ub = b
		}
	}
	if math.IsInf(ub, 1) || ub <= 0 {
		return 0, stats
	}
	scale := ub
	minPhases := int(math.Ceil(2 / eps))
	var lambda float64
	for attempt := 0; attempt < 12; attempt++ {
		scaled := make([]route.Commodity, len(cs))
		for i, c := range cs {
			scaled[i] = c
			scaled[i].Demand = c.Demand * scale
		}
		lam, phases, iters := gargKonemann(fz, scaled, oracle, eps)
		stats.Attempts++
		stats.Phases += phases
		stats.Iterations += iters
		lambda = lam * scale
		if phases >= minPhases {
			break
		}
		if lambda == 0 {
			// The scale was so far above λ that the run stopped inside
			// the first phase before touching every commodity. Back off
			// geometrically until a full phase completes.
			scale /= 1024
			continue
		}
		// Too few phases: demands were scaled too high. Re-center the
		// scale on the estimate so the next run completes ~T phases.
		scale = lambda
	}
	return lambda, stats
}

// gargKonemann runs the Fleischer variant of the Garg–Könemann max
// concurrent flow algorithm. oracle(j, lengths) returns commodity j's
// cheapest usable path under the given link lengths. It returns the
// feasible concurrent ratio, the number of full phases completed, and
// the number of inner augmentation iterations.
func gargKonemann(fz *graph.Frozen, cs []route.Commodity, oracle func(int, []float64) (graph.Path, bool), eps float64) (float64, int, int64) {
	m := 0
	cap := make([]float64, fz.NumLinks())
	for i := 0; i < fz.NumLinks(); i++ {
		id := graph.LinkID(i)
		cap[i] = fz.LinkCap(id)
		if fz.LinkUp(id) && cap[i] > 0 {
			m++
		}
	}
	if m == 0 || len(cs) == 0 {
		return 0, 0, 0
	}

	delta := math.Pow(float64(m)/(1-eps), -1/eps)
	length := make([]float64, fz.NumLinks())
	var dual float64 // D(l) = sum cap(e)*length(e)
	for i := range length {
		if cap[i] > 0 {
			length[i] = delta / cap[i]
			dual += delta
		}
	}

	routed := make([]float64, len(cs)) // total flow shipped per commodity
	scaleT := math.Log(1/delta) / math.Log(1+eps)
	phases := 0
	var iters int64

	for dual < 1 {
		for j := range cs {
			remaining := cs[j].Demand
			for remaining > 0 && dual < 1 {
				p, ok := oracle(j, length)
				if !ok {
					return 0, phases, iters
				}
				iters++
				// Bottleneck capacity along the path.
				bottleneck := math.Inf(1)
				for _, e := range p.Links {
					if cap[e] < bottleneck {
						bottleneck = cap[e]
					}
				}
				f := math.Min(remaining, bottleneck)
				for _, e := range p.Links {
					old := length[e]
					length[e] = old * (1 + eps*f/cap[e])
					dual += cap[e] * (length[e] - old)
				}
				routed[j] += f
				remaining -= f
			}
		}
		if dual < 1 {
			phases++
		}
	}

	lambda := math.Inf(1)
	for j := range cs {
		if r := routed[j] / cs[j].Demand; r < lambda {
			lambda = r
		}
	}
	return lambda / scaleT, phases, iters
}

func countEmpty(paths [][]graph.Path) int {
	n := 0
	for _, ps := range paths {
		if len(ps) == 0 {
			n++
		}
	}
	return n
}
