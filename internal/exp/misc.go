package exp

import (
	"fmt"

	"pnet/internal/topo"
)

func runFig14(p Params) Table {
	sw, deg, hps := jfSize(p.Scale)
	pairs, trials := 1000, 3
	if p.Scale == ScaleFull {
		pairs, trials = 5000, 5
	}
	set := topo.JellyfishSet(sw, deg, hps, 4, 100, p.Seed)
	fractions := []float64{0, 0.1, 0.2, 0.3, 0.4}

	t := Table{
		ID:    "fig14",
		Title: "Average hop count across src/dst pairs under link failures (paper Fig. 14)",
		Note: fmt.Sprintf("%d-host Jellyfish, 4 planes for parallel networks; random inter-switch cable failures; "+
			"growth%% = increase over the network's own zero-failure hop count", sw*hps),
		Header: []string{"network", "fail%", "avg hops", "growth%", "unreachable%"},
	}
	nets := []struct {
		name string
		tp   *topo.Topology
	}{
		{"serial", set.SerialLow},
		{"parallel homogeneous", set.ParallelHomo},
		{"parallel heterogeneous", set.ParallelHetero},
	}
	for _, n := range nets {
		pts := topo.HopCountSweep(n.tp, fractions, pairs, trials, p.Seed)
		base := pts[0].AvgHops
		for _, pt := range pts {
			t.Rows = append(t.Rows, []string{
				n.name,
				fmt.Sprintf("%.0f", pt.Fraction*100),
				f3(pt.AvgHops),
				fmt.Sprintf("%+.1f", (pt.AvgHops/base-1)*100),
				fmt.Sprintf("%.2f", pt.Unreachable*100),
			})
		}
	}
	return t
}
