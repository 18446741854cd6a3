package exp

import (
	"fmt"

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

// rpcSamples measures request completion times for every network, one
// concurrent cell per network; the name-keyed map is assembled after
// the join so cell completion order never shows.
func rpcSamples(p Params, reqBytes, respBytes int64, loops, rounds int) map[string][]float64 {
	nets := rpcNets(p)
	all := make([][]float64, len(nets))
	par.Do(len(nets), func(i int) {
		n := nets[i]
		d := p.newDriver(n.tp, sim.Config{}, tcp.Config{})
		// On error, keep what completed; the table will show the shortfall.
		samples, _ := workload.RunRPC(d, workload.RPCConfig{
			ReqBytes:     reqBytes,
			RespBytes:    respBytes,
			Rounds:       rounds,
			LoopsPerHost: loops,
			Sel:          n.sel,
			Seed:         p.Seed,
			Deadline:     120 * sim.Second,
		})
		all[i] = samples
	})
	out := make(map[string][]float64)
	for i, n := range nets {
		out[n.name] = all[i]
	}
	return out
}

func rpcRounds(p Params) int {
	if p.Scale == ScaleFull {
		return 1000 // the paper's 1000 rounds
	}
	return 50
}

func runFig10(p Params) Table {
	samples := rpcSamples(p, 1500, 1500, 1, rpcRounds(p))
	t := Table{
		ID:     "fig10",
		Title:  "1500B RPC request completion time (paper Fig. 10)",
		Note:   "ping-pong RPC on 4-plane Jellyfish, single-path routing; CDF probe points",
		Header: []string{"network", "p10", "p25", "median", "p75", "p90", "p99"},
	}
	for _, n := range rpcNets(p) {
		xs := samples[n.name]
		if len(xs) == 0 {
			t.Rows = append(t.Rows, []string{n.name, "stall"})
			continue
		}
		c := metrics.NewCDF(xs)
		t.Rows = append(t.Rows, []string{
			n.name,
			secs(c.Quantile(0.10)), secs(c.Quantile(0.25)), secs(c.Quantile(0.50)),
			secs(c.Quantile(0.75)), secs(c.Quantile(0.90)), secs(c.Quantile(0.99)),
		})
	}
	return t
}

func runTable2(p Params) Table {
	samples := rpcSamples(p, 1500, 1500, 1, rpcRounds(p))
	t := Table{
		ID:     "table2",
		Title:  "1500B RPC completion statistics vs serial low-bw (paper Table 2)",
		Header: []string{"network", "median", "average", "99%-tile"},
	}
	base, ok := samples["serial low-bw"]
	if !ok || len(base) == 0 {
		t.Rows = append(t.Rows, []string{"serial low-bw stalled", "", "", ""})
		return t
	}
	bs := metrics.Summarize(base)
	pct := func(v float64) string { return fmt.Sprintf("%.1f%%", v*100) }
	for _, n := range rpcNets(p) {
		xs := samples[n.name]
		if len(xs) == 0 {
			continue
		}
		r := metrics.Summarize(xs).Relative(bs)
		t.Rows = append(t.Rows, []string{n.name, pct(r.Median), pct(r.Mean), pct(r.P99)})
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
	rows := make([][]string, len(nets)*len(concurrencies))
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
			rows[idx] = []string{n.name, fmt.Sprint(conc), "stall", "", "", ""}
			return
		}
		s := metrics.Summarize(samples)
		rows[idx] = []string{
			n.name, fmt.Sprint(conc),
			secs(s.Median), secs(s.P90), secs(s.P99),
			fmt.Sprint(d.Net.TotalDrops()),
		}
	})
	t.Rows = append(t.Rows, rows...)
	return t
}
