package topo

import (
	"math/rand"

	"pnet/internal/graph"
)

// HopPoint is one measurement of a HopCountSweep.
type HopPoint struct {
	Fraction float64
	// AvgHops is the mean host-to-host shortest-path hop count over
	// reachable sampled pairs (min across planes).
	AvgHops float64
	// Unreachable is the mean fraction of sampled pairs with no
	// surviving path.
	Unreachable float64
}

// HopCountSweep is the paper's fault-tolerance analysis (§5.4, Figure 14):
// how the average shortest-path hop count between hosts degrades as
// random inter-switch cables fail. A P-Net's planes keep short paths alive
// far longer than a serial network's single plane.
//
// It samples `pairs` random host pairs once, then for each failure rate in
// fractions averages over `trials` random draws (both counts must be
// positive): fail that share of the cables on a clone of t's graph, so t
// is untouched, and measure the sampled pairs. Failing a cable takes down
// both directed links; host uplinks never fail (the paper fails network
// links). Deterministic for a seed.
func HopCountSweep(t *Topology, fractions []float64, pairs, trials int, seed int64) []HopPoint {
	rng := rand.New(rand.NewSource(seed))
	sampled := samplePairs(t, pairs, rng)
	cables := interSwitchCables(t)
	out := make([]HopPoint, 0, len(fractions))
	for _, frac := range fractions {
		var hops, unreach float64
		for trial := 0; trial < trials; trial++ {
			g := t.G.Clone()
			failCables(g, cables, frac, rng)
			avg, bad := graph.AvgShortestHops(g, sampled)
			hops += avg
			unreach += float64(bad) / float64(len(sampled))
		}
		out = append(out, HopPoint{
			Fraction:    frac,
			AvgHops:     hops / float64(trials),
			Unreachable: unreach / float64(trials),
		})
	}
	return out
}

// samplePairs draws distinct random (src, dst) host pairs.
func samplePairs(t *Topology, n int, rng *rand.Rand) [][2]graph.NodeID {
	hosts := t.Hosts
	maxPairs := len(hosts) * (len(hosts) - 1)
	if n > maxPairs {
		n = maxPairs
	}
	pairs := make([][2]graph.NodeID, 0, n)
	seen := make(map[[2]graph.NodeID]bool, n)
	for len(pairs) < n {
		a := hosts[rng.Intn(len(hosts))]
		b := hosts[rng.Intn(len(hosts))]
		if a == b {
			continue
		}
		p := [2]graph.NodeID{a, b}
		if seen[p] {
			continue
		}
		seen[p] = true
		pairs = append(pairs, p)
	}
	return pairs
}

// interSwitchCables groups the topology's inter-switch directed links
// into duplex cables.
func interSwitchCables(t *Topology) [][2]graph.LinkID {
	var cables [][2]graph.LinkID
	seen := make(map[graph.LinkID]bool)
	for _, id := range t.InterSwitchLinks() {
		if seen[id] {
			continue
		}
		rid, ok := t.G.ReverseLink(id)
		if !ok {
			continue
		}
		seen[id] = true
		seen[rid] = true
		cables = append(cables, [2]graph.LinkID{id, rid})
	}
	return cables
}

// failCables takes down a random fraction of cables (both directions).
func failCables(g *graph.Graph, cables [][2]graph.LinkID, frac float64, rng *rand.Rand) {
	n := int(float64(len(cables))*frac + 0.5)
	perm := rng.Perm(len(cables))
	for _, idx := range perm[:n] {
		g.SetLinkUp(cables[idx][0], false)
		g.SetLinkUp(cables[idx][1], false)
	}
}
