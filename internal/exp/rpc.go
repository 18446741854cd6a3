package exp

import (
	"slices"

	"pnet/internal/metrics"
	"pnet/internal/par"
	"pnet/internal/sim"
	"pnet/internal/tcp"
	"pnet/internal/workload"
)

func init() {
	register("fig10", "1500B RPC completion time distribution, single-path routing", runFig10)
	register("table2", "1500B RPC completion statistics relative to serial low-bw", runTable2)
	register("fig11", "Concurrent 100kB RPC completion time vs concurrency", runFig11)
}

// rpcNets returns the four networks for the §5.2.1 experiments.
func rpcNets(p Params) []netUnderTest {
	sw, deg, hps := 24, 4, 4
	if p.Scale == ScaleFull {
		sw, deg, hps = 98, 7, 7
	}
	// Small RPCs use single-path routing; ECMP hashing spreads distinct
	// flows over shortest paths and planes (§5.2.1).
	sel := workload.Selection{Policy: workload.ECMP}
	return jellyfishNUT(sw, deg, hps, 4, 100, p.Seed, sel, sel)
}

// rpcSamples measures 1500B ping-pong RPC completion times on every
// rpcNets network, one concurrent cell per network, into per-network
// slots so cell completion order never shows.
func rpcSamples(p Params) ([]netUnderTest, [][]float64) {
	rounds := 50
	if p.Scale == ScaleFull {
		rounds = 1000 // the paper's 1000 rounds
	}
	nets := rpcNets(p)
	samples := make([][]float64, len(nets))
	par.Do(len(nets), func(i int) {
		d := p.newDriver(nets[i].tp, sim.Config{}, tcp.Config{})
		// On error, keep what completed; the table will show the shortfall.
		samples[i], _ = workload.RunRPC(d, workload.RPCConfig{
			ReqBytes:     1500,
			RespBytes:    1500,
			Rounds:       rounds,
			LoopsPerHost: 1,
			Sel:          nets[i].sel,
			Seed:         p.Seed,
			Deadline:     120 * sim.Second,
		})
	})
	return nets, samples
}

func runFig10(p Params) Table {
	nets, samples := rpcSamples(p)
	t := Table{
		ID:     "fig10",
		Title:  "1500B RPC request completion time (paper Fig. 10)",
		Note:   "ping-pong RPC on 4-plane Jellyfish, single-path routing; CDF probe points",
		Header: []string{"network", "p10", "p25", "median", "p75", "p90", "p99"},
	}
	for i, n := range nets {
		if len(samples[i]) == 0 {
			t.Rows = append(t.Rows, stall(2, label(n.name)))
			continue
		}
		s := slices.Clone(samples[i])
		slices.Sort(s)
		row := []Cell{label(n.name)}
		for _, pct := range []float64{10, 25, 50, 75, 90, 99} {
			row = append(row, secs(metrics.Percentile(s, pct)))
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}

func runTable2(p Params) Table {
	nets, samples := rpcSamples(p)
	t := Table{
		ID:     "table2",
		Title:  "1500B RPC completion statistics vs serial low-bw (paper Table 2)",
		Header: []string{"network", "median", "average", "99%-tile"},
	}
	if len(samples[0]) == 0 { // nets[0] is serial low-bw
		t.Rows = append(t.Rows, []Cell{label("serial low-bw stalled"), {}, {}, {}})
		return t
	}
	base := metrics.Summarize(samples[0])
	for i, n := range nets {
		if len(samples[i]) == 0 {
			continue
		}
		r := metrics.Summarize(samples[i]).Relative(base)
		t.Rows = append(t.Rows, []Cell{label(n.name), num(r.Median*100, "%.1f%%"), num(r.Mean*100, "%.1f%%"), num(r.P99*100, "%.1f%%")})
	}
	return t
}

func runFig11(p Params) Table {
	concurrencies := []int{1, 2, 4, 8}
	rounds := 5
	if p.Scale == ScaleFull {
		concurrencies = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
		rounds = 20
	}
	t := Table{
		ID:     "fig11",
		Title:  "Concurrent 100kB RPC completion times (paper Fig. 11)",
		Note:   "closed-loop 100kB RPCs per host; median / p90 / p99 per concurrency level",
		Header: []string{"network", "concurrency", "median", "p90", "p99", "drops"},
	}
	// The (network, concurrency) grid is independent — each cell owns a
	// driver, so the whole grid runs concurrently into per-index rows.
	nets := rpcNets(p)
	rows := make([][]Cell, len(nets)*len(concurrencies))
	par.Do(len(rows), func(idx int) {
		n, conc := nets[idx/len(concurrencies)], concurrencies[idx%len(concurrencies)]
		d := p.newDriver(n.tp, sim.Config{}, tcp.Config{})
		samples, err := workload.RunRPC(d, workload.RPCConfig{
			ReqBytes:     100_000,
			RespBytes:    1500,
			Rounds:       rounds,
			LoopsPerHost: conc,
			Sel:          n.sel,
			Seed:         p.Seed,
			Deadline:     120 * sim.Second,
		})
		if err != nil || len(samples) == 0 {
			rows[idx] = stall(6, label(n.name), count(conc))
			return
		}
		s := metrics.Summarize(samples)
		rows[idx] = []Cell{
			label(n.name), count(conc),
			secs(s.Median), secs(s.P90), secs(s.P99),
			count(d.Net.TotalDrops()),
		}
	})
	t.Rows = append(t.Rows, rows...)
	return t
}
