// Package workload generates the paper's traffic patterns, in two forms:
// commodity lists for the max-concurrent-flow ("LP") experiments, and
// packet-simulation drivers for the flow-completion-time experiments —
// ping-pong RPCs, concurrent RPCs, Hadoop-style shuffles, and closed-loop
// trace-driven flows.
package workload

import (
	"math/rand"

	"pnet/internal/graph"
	"pnet/internal/route"
	"pnet/internal/topo"
)

// PermutationCommodities returns a random permutation traffic matrix: each
// host sends to exactly one other host and receives from exactly one (a
// random derangement), with the given per-flow demand. This is the paper's
// canonical sparse pattern.
func PermutationCommodities(t *topo.Topology, demand float64, rng *rand.Rand) []route.Commodity {
	n := t.NumHosts()
	perm := derangement(n, rng)
	cs := make([]route.Commodity, n)
	for i := 0; i < n; i++ {
		cs[i] = route.Commodity{Src: t.Hosts[i], Dst: t.Hosts[perm[i]], Demand: demand}
	}
	return cs
}

// derangement returns a uniform random permutation with no fixed points.
func derangement(n int, rng *rand.Rand) []int {
	for {
		p := rng.Perm(n)
		ok := true
		for i, v := range p {
			if i == v {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
}

// AllToAllCommodities returns the dense pattern: every ordered host pair,
// each with demand demandPerPair. For H hosts this creates H×(H-1)
// commodities; use hostBandwidth/(H-1) as the per-pair demand to express
// "each host offers its full uplink bandwidth".
func AllToAllCommodities(t *topo.Topology, demandPerPair float64) []route.Commodity {
	n := t.NumHosts()
	cs := make([]route.Commodity, 0, n*(n-1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				cs = append(cs, route.Commodity{Src: t.Hosts[i], Dst: t.Hosts[j], Demand: demandPerPair})
			}
		}
	}
	return cs
}

// RackAllToAll builds the paper's Figure 7 instance: rack-level all-to-all
// traffic measuring the capacity of the network core. It returns a copy of
// the topology's graph augmented with one non-transit "rack node" per
// rack, attached by effectively infinite links to every ToR that serves
// the rack's hosts on every plane, plus commodities between all rack
// pairs. Host uplink bottlenecks are thus excluded — only the core
// constrains the result, as in the paper's "no path constraint" setup.
func RackAllToAll(t *topo.Topology, demandPerPair float64) (*graph.Graph, []route.Commodity) {
	g := t.G.Clone()
	const hugeCapacity = 1e9 // Gb/s; never the bottleneck

	racks := t.RackMembers()
	rackNodes := make([]graph.NodeID, len(racks))
	for r, members := range racks {
		vn := g.AddNode(false)
		rackNodes[r] = vn
		for plane := 0; plane < t.Planes; plane++ {
			seen := map[graph.NodeID]bool{}
			for _, h := range members {
				tor := t.ToR[h][plane]
				if !seen[tor] {
					seen[tor] = true
					g.AddDuplex(vn, tor, hugeCapacity, int32(plane))
				}
			}
		}
	}

	var cs []route.Commodity
	for i := range rackNodes {
		for j := range rackNodes {
			if i != j {
				cs = append(cs, route.Commodity{Src: rackNodes[i], Dst: rackNodes[j], Demand: demandPerPair})
			}
		}
	}
	return g, cs
}
