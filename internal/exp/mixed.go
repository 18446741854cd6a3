package exp

import (
	"fmt"

	"pnet/internal/metrics"
	"pnet/internal/sim"
	"pnet/internal/tcp"
	"pnet/internal/topo"
	"pnet/internal/workload"
)

func init() {
	register("mixed", "Extension (§7): mixed fat-tree + expander P-Net with per-class plane choice", runMixed)
}

// runMixed builds a 4-plane P-Net whose plane 0 is a fat tree and planes
// 1-3 are expanders, then measures small RPCs and a bulk permutation on
// each plane family, pinned there by a traffic class under per-hop ECMP.
// §7 proposes expanders for latency traffic, and their shorter paths do
// give shorter RPCs; at small scale their three planes also finish the
// bulk permutation sooner than the fat tree's one (EXPERIMENTS.md).
func runMixed(p Params) Table {
	k := 8
	if p.Scale == ScaleFull {
		k = 14 // 686 hosts, matching the paper's Jellyfish scale
	}
	tp := topo.MixedPNet(k, 4, 100, p.Seed)

	t := Table{
		ID:    "mixed",
		Title: "Mixed-topology P-Net: per-class plane families (extension of paper §7)",
		Note: fmt.Sprintf("%d hosts; plane 0 = k=%d fat tree, planes 1-3 = expanders; "+
			"classes pin traffic to one family", tp.NumHosts(), k),
		Header: []string{"workload", "plane family", "median", "p99"},
	}

	mkDriver := func() *workload.Driver {
		d := p.newDriver(tp, sim.Config{}, tcp.Config{})
		if err := d.PNet.SetClass("fattree", []int{0}); err != nil {
			panic(err)
		}
		if err := d.PNet.SetClass("expander", []int{1, 2, 3}); err != nil {
			panic(err)
		}
		return d
	}

	// Small RPCs per family.
	for _, class := range []string{"fattree", "expander"} {
		d := mkDriver()
		samples, err := workload.RunRPC(d, workload.RPCConfig{
			ReqBytes: 1500, RespBytes: 1500,
			Rounds: 20, LoopsPerHost: 1,
			Sel:  workload.Selection{Policy: workload.ECMP, Class: class},
			Seed: p.Seed,
		})
		if err != nil {
			t.Rows = append(t.Rows, stall(4, label("1500B RPC"), label(class)))
			continue
		}
		s := metrics.Summarize(samples)
		t.Rows = append(t.Rows, []Cell{label("1500B RPC"), label(class), secs(s.Median), secs(s.P99)})
	}

	// Bulk permutation per family: one 10 MB flow per host.
	for _, class := range []string{"fattree", "expander"} {
		d := mkDriver()
		hosts := tp.Hosts
		// Per-flow slots: Summarize is order-sensitive, and slots keep its
		// input in flow order rather than completion order.
		fcts := make([]float64, len(hosts))
		for h := range hosts {
			h := h
			dst := hosts[(h+len(hosts)/2)%len(hosts)]
			_, err := d.StartFlow(hosts[h], dst, 10_000_000,
				workload.Selection{Policy: workload.ECMP, Class: class}, nil,
				func(f *tcp.Flow) { fcts[h] = f.FCT().Seconds() })
			if err != nil {
				panic(err)
			}
		}
		if err := d.MustRunUntil(60*sim.Second, int64(len(hosts))); err != nil {
			t.Rows = append(t.Rows, stall(4, label("10MB bulk"), label(class)))
			continue
		}
		s := metrics.Summarize(fcts)
		t.Rows = append(t.Rows, []Cell{label("10MB bulk"), label(class), secs(s.Median), secs(s.P99)})
	}
	return t
}
