package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/mcf"
	"pnet/internal/route"
	"pnet/internal/sim"
	"pnet/internal/tcp"
	"pnet/internal/topo"
)

// TestSimMatchesLPOnPermutation cross-validates the two measurement
// substrates, one row per line of DESIGN.md §2's substitution table: a
// permutation of long flows is handed to the LP-side solver and to the
// packet simulator on the *same* path sets, and the simulator's aggregate
// goodput must stay under the LP optimum and come close to it. This is
// the consistency check between the paper's "LP solver" and "htsim"
// methodologies.
func TestSimMatchesLPOnPermutation(t *testing.T) {
	rows := []struct {
		name string
		// route picks the path sets both models get.
		route func(tp *topo.Topology, cs []route.Commodity) [][]graph.Path
		// optimum is the LP side's aggregate throughput in Gb/s.
		optimum func(tp *topo.Topology, cs []route.Commodity, paths [][]graph.Path) float64
		// lo is the smallest sim/LP ratio accepted: the smallest of three
		// measured seeds, less 0.015 for slow start inside the 4 ms
		// window. The ceiling is 1.05 for every row.
		lo float64
	}{
		{
			// Pinned ECMP: a fair single-path transport converges to the
			// max-min fair allocation. Measured on seeds 9–11: 0.957,
			// 0.928, 0.939 (1100/1150, 1299/1400, 1221/1300 Gb/s).
			name: "ecmp-pinned",
			route: func(tp *topo.Topology, cs []route.Commodity) [][]graph.Path {
				return route.ECMPPaths(tp.G, cs, 42)
			},
			optimum: func(tp *topo.Topology, cs []route.Commodity, paths [][]graph.Path) float64 {
				return mcf.MaxMinPinned(tp.G, cs, paths).Total
			},
			lo: 0.91,
		},
		{
			// MPTCP over K shortest paths: splittable subflows approximate
			// the max concurrent flow on the path set (GK at ε = 0.05, so
			// the LP figure is itself within a few percent below the true
			// optimum of 3200 Gb/s, every NIC full). Measured on seeds
			// 9–11: 0.915, 0.935, 0.943 (2788/3047, 2863/3062, 2884/3059).
			name: "mptcp-ksp",
			route: func(tp *topo.Topology, cs []route.Commodity) [][]graph.Path {
				return route.KSPPaths(tp.G, cs, 8)
			},
			optimum: func(tp *topo.Topology, cs []route.Commodity, paths [][]graph.Path) float64 {
				return mcf.FixedPaths(tp.G, cs, paths, mcf.Options{Epsilon: 0.05}).TotalThroughput
			},
			lo: 0.90,
		},
	}
	tp := topo.FatTreeSet(4, 2, 100).ParallelHomo
	for _, row := range rows {
		seeds := []int64{9, 10, 11}
		if testing.Short() {
			seeds = seeds[:1] // 1 s a seed, ten times that under -race
		}
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed=%d", row.name, seed), func(t *testing.T) {
				// Every host offers its whole uplink bandwidth, so no
				// demand binds before the network does.
				cs := PermutationCommodities(tp, tp.HostBandwidth(), rand.New(rand.NewSource(seed)))
				paths := row.route(tp, cs)
				predicted := row.optimum(tp, cs, paths)

				// Simulate the same flows on the same paths for a fixed
				// window and measure aggregate goodput.
				d := NewDriver(tp, sim.Config{}, tcp.Config{})
				const flowBytes = 200_000_000 // long enough to stay in steady state
				flows := make([]*tcp.Flow, len(cs))
				for i := range cs {
					f, err := d.StartFlowOnPaths(paths[i], flowBytes, nil, nil)
					if err != nil {
						t.Fatal(err)
					}
					flows[i] = f
				}
				const window = 4 * sim.Millisecond
				d.Eng.RunUntil(window)

				var deliveredBytes float64
				for _, f := range flows {
					deliveredBytes += float64(f.DeliveredPkts()) * 1500
				}
				measured := deliveredBytes * 8 / window.Seconds() / 1e9 // Gb/s

				ratio := measured / predicted
				t.Logf("sim %.1f Gb/s, LP %.1f Gb/s, ratio %.3f", measured, predicted, ratio)
				if ratio < row.lo || ratio > 1.05 {
					t.Errorf("sim/LP goodput ratio %.3f outside [%.2f, 1.05]", ratio, row.lo)
				}
			})
		}
	}
}
