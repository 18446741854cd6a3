package exp

import (
	"fmt"

	"pnet/internal/metrics"
	"pnet/internal/sim"
	"pnet/internal/tcp"
	"pnet/internal/workload"
)

func init() {
	register("fig12", "Hadoop-like shuffle per-worker completion time per stage", runFig12)
	register("fig14", "Average hop count under random link failures", runFig14) // defined in misc.go
}

func runFig12(p Params) Table {
	// The paper sorts 100 GB across 32 mappers + 32 reducers on a
	// 250-host cluster with 128 MB blocks. Small scale keeps the shape
	// (workers ≈ 1/4 of hosts, ~16 blocks per mapper, shuffle flows a
	// block-sized fraction) at 1/64 the bytes.
	sw, deg, hps := 16, 4, 4
	cfg := workload.ShuffleConfig{
		Mappers: 8, Reducers: 8,
		TotalBytes:  512 << 20, // 512 MB
		BlockBytes:  8 << 20,   // 8 MB
		Concurrency: 4,
		Sel:         workload.Selection{Policy: workload.ECMP},
		Seed:        p.Seed,
	}
	if p.Scale == ScaleFull {
		sw, deg, hps = 64, 7, 4 // 256 hosts ≈ the paper's 250-host cluster
		cfg.Mappers, cfg.Reducers = 32, 32
		cfg.TotalBytes = 100 << 30
		cfg.BlockBytes = 128 << 20
	}

	sel := cfg.Sel
	nets := jellyfishNUT(sw, deg, hps, 4, 100, p.Seed, sel, sel)

	t := Table{
		ID:    "fig12",
		Title: "Simulated Hadoop-like workload per-worker completion times (paper Fig. 12)",
		Note: fmt.Sprintf("%d hosts, %d mappers + %d reducers, %s total, %s blocks, single-path routing",
			sw*hps, cfg.Mappers, cfg.Reducers, byteLabel(cfg.TotalBytes), byteLabel(cfg.BlockBytes)),
		Header: []string{"network", "stage", "median", "p90", "max"},
	}
	for _, n := range nets {
		d := p.newDriver(n.tp, sim.Config{}, tcp.Config{})
		times, err := workload.RunShuffle(d, cfg)
		if err != nil {
			t.Rows = append(t.Rows, stall(5, label(n.name)))
			continue
		}
		for _, st := range []struct {
			name string
			xs   []float64
		}{
			{"1 read input", times.Read},
			{"2 shuffle", times.Shuffle},
			{"3 write output", times.Write},
		} {
			s := metrics.Summarize(st.xs)
			t.Rows = append(t.Rows, []Cell{label(n.name), label(st.name), secs(s.Median), secs(s.P90), secs(s.Max)})
		}
	}
	return t
}
