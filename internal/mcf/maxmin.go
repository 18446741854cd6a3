package mcf

import (
	"math"

	"pnet/internal/graph"
	"pnet/internal/route"
)

// MaxMinResult reports a max-min fair allocation over pinned paths.
type MaxMinResult struct {
	// Rates is the per-commodity allocation.
	Rates []float64
	// Total is the sum of rates — the "achieved throughput" of a traffic
	// pattern under fixed routing.
	Total float64
	// MinRate is the smallest allocation among routed commodities.
	MinRate float64
	// Unrouted counts commodities without a path (rate 0).
	Unrouted int
}

// MaxMinPinned computes the max-min fair rate allocation when every
// commodity is pinned to a single path, by progressive filling: all
// unfrozen flows rise at the same rate; whenever a link saturates, the
// flows crossing it freeze at the current level; a flow also freezes on
// reaching its demand (a non-positive demand means unbounded). This
// models what a fair per-flow transport achieves over hash-pinned ECMP
// routes; Total is the "achieved throughput" plotted in the paper's ECMP
// figures.
func MaxMinPinned(g *graph.Graph, cs []route.Commodity, paths [][]graph.Path) MaxMinResult {
	if len(paths) != len(cs) {
		panic("mcf: paths/commodities length mismatch")
	}
	n := len(cs)
	res := MaxMinResult{Rates: make([]float64, n)}

	remaining := make([]float64, g.NumLinks())
	for i := range remaining {
		remaining[i] = g.Link(graph.LinkID(i)).Capacity
	}
	flowsOn := make([][]int32, g.NumLinks())
	activeOn := make([]int, g.NumLinks())
	active := make([]bool, n)
	activeCount := 0
	for i, ps := range paths {
		if len(ps) == 0 {
			res.Unrouted++
			continue
		}
		active[i] = true
		activeCount++
		for _, e := range ps[0].Links {
			flowsOn[e] = append(flowsOn[e], int32(i))
			activeOn[e]++
		}
	}

	// Only a commodity with a positive demand can freeze on reaching it;
	// the rounds scan these, in index order, and skip the unbounded rest.
	var bounded []int32
	for i, c := range cs {
		if c.Demand > 0 {
			bounded = append(bounded, int32(i))
		}
	}

	freeze := func(f int32, level float64) {
		if !active[f] {
			return
		}
		active[f] = false
		activeCount--
		res.Rates[f] = level
		for _, e := range paths[f][0].Links {
			activeOn[e]--
		}
	}

	level := 0.0
	for activeCount > 0 {
		// Next event: a link saturates or a flow reaches its demand.
		inc := math.Inf(1)
		for e := range activeOn {
			if activeOn[e] > 0 {
				if share := remaining[e] / float64(activeOn[e]); share < inc {
					inc = share
				}
			}
		}
		for _, i := range bounded {
			if active[i] {
				if room := cs[i].Demand - level; room < inc {
					inc = room
				}
			}
		}
		if math.IsInf(inc, 1) {
			// Active flows with neither a constraining link nor a demand.
			for i := range cs {
				if active[i] {
					freeze(int32(i), level)
				}
			}
			break
		}
		if inc < 0 {
			inc = 0
		}

		level += inc
		for e := range activeOn {
			if activeOn[e] > 0 {
				remaining[e] -= inc * float64(activeOn[e])
			}
		}
		const tol = 1e-9
		progressed := false
		for e := range activeOn {
			if activeOn[e] > 0 && remaining[e] <= tol*g.Link(graph.LinkID(e)).Capacity {
				for _, f := range flowsOn[e] {
					if active[f] {
						freeze(f, level)
						progressed = true
					}
				}
			}
		}
		for _, i := range bounded {
			if active[i] && level >= cs[i].Demand-tol {
				freeze(i, level)
				progressed = true
			}
		}
		if !progressed {
			// Numerical corner: force progress rather than spin.
			for i := range cs {
				if active[i] {
					freeze(int32(i), level)
				}
			}
		}
	}

	res.MinRate = math.Inf(1)
	for i, r := range res.Rates {
		res.Total += r
		if len(paths[i]) > 0 && r < res.MinRate {
			res.MinRate = r
		}
	}
	if math.IsInf(res.MinRate, 1) {
		res.MinRate = 0
	}
	return res
}
