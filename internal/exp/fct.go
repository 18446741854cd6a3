package exp

import (
	"fmt"
	"math/rand"

	"pnet/internal/metrics"
	"pnet/internal/par"
	"pnet/internal/sim"
	"pnet/internal/tcp"
	"pnet/internal/topo"
	"pnet/internal/traces"
	"pnet/internal/workload"
)

func init() {
	register("fig9", "Small-flow FCT vs flow size (permutation, 4-plane Jellyfish)", runFig9)
	register("fig13a", "Flow size distributions of published DC traces", runFig13a)
	register("fig13b", "Datamining-trace FCT distribution on Jellyfish", func(p Params) Table {
		return runTraceFCT("fig13b", traces.DataMining, 100, "jellyfish", p)
	})
	register("fig13c", "Websearch-trace FCT distribution on Jellyfish", func(p Params) Table {
		return runTraceFCT("fig13c", traces.WebSearch, 100, "jellyfish", p)
	})
	register("figapp", "Appendix: trace FCTs across speeds and topologies (Figs. 16-20)", runFigAppendix)
}

// fctNets enumerates the four §5 network types for a Jellyfish
// configuration at the given base speed, with their paper-chosen routing.
type netUnderTest struct {
	name string
	tp   *topo.Topology
	sel  workload.Selection
}

// jellyfishNUT builds the four networks; parallel networks get `parallelSel`
// routing and serial ones `serialSel`.
func jellyfishNUT(sw, deg, hps, planes int, speed float64, seed int64, serialSel, parallelSel workload.Selection) []netUnderTest {
	set := topo.JellyfishSet(sw, deg, hps, planes, speed, seed)
	return []netUnderTest{
		{"serial low-bw", set.SerialLow, serialSel},
		{"parallel homogeneous", set.ParallelHomo, parallelSel},
		{"parallel heterogeneous", set.ParallelHetero, parallelSel},
		{"serial high-bw", set.SerialHigh, serialSel},
	}
}

func fatTreeNUT(k, planes int, speed float64, serialSel, parallelSel workload.Selection) []netUnderTest {
	set := topo.FatTreeSet(k, planes, speed)
	return []netUnderTest{
		{"serial low-bw", set.SerialLow, serialSel},
		{"parallel homogeneous", set.ParallelHomo, parallelSel},
		{"serial high-bw", set.SerialHigh, serialSel},
	}
}

// permutationFCT starts one flow of sizeBytes per host (random
// permutation) and returns mean FCT in seconds.
func permutationFCT(tp *topo.Topology, sel workload.Selection, sizeBytes int64, p Params) (float64, error) {
	d := p.newDriver(tp, sim.Config{}, tcp.Config{})
	rng := rand.New(rand.NewSource(p.Seed))
	cs := workload.PermutationCommodities(tp, 1, rng)
	// Completions land in per-flow slots: the float sum below is
	// order-sensitive, and slots keep it in flow order rather than
	// completion order.
	fcts := make([]float64, len(cs))
	for i, c := range cs {
		i := i
		_, err := d.StartFlow(c.Src, c.Dst, sizeBytes, sel, nil, func(f *tcp.Flow) {
			fcts[i] = f.FCT().Seconds()
		})
		if err != nil {
			return 0, err
		}
	}
	if err := d.MustRunUntil(120*sim.Second, int64(len(cs))); err != nil {
		return 0, err
	}
	return metrics.Mean(fcts), nil
}

func runFig9(p Params) Table {
	sw, deg, hps := 16, 4, 4
	sizes := []int64{100_000, 1_000_000, 10_000_000, 100_000_000}
	if p.Scale == ScaleFull {
		sw, deg, hps = 98, 7, 7
		sizes = append(sizes, 1_000_000_000)
	}
	// Paper: single-path is best for serial networks, 4-way KSP for the
	// 4-plane parallel networks.
	nets := jellyfishNUT(sw, deg, hps, 4, 100, p.Seed,
		workload.Selection{Policy: workload.ECMP},
		workload.Selection{Policy: workload.KSP, K: 4})

	t := Table{
		ID:    "fig9",
		Title: "Small flow FCT with varying flow sizes (paper Fig. 9)",
		Note: fmt.Sprintf("%d-host 4-plane Jellyfish, permutation; serial=single path, parallel=4-way KSP; mean FCT",
			sw*hps),
		Header: append([]string{"network"}, func() []string {
			h := make([]string, len(sizes))
			for i, s := range sizes {
				h[i] = byteLabel(s)
			}
			return h
		}()...),
	}
	// The (network, size) grid is fully independent: every cell builds
	// its own driver and RNG from p.Seed, so all cells run concurrently
	// into per-index slots.
	vals := make([]string, len(nets)*len(sizes))
	par.Do(len(vals), func(idx int) {
		n, size := nets[idx/len(sizes)], sizes[idx%len(sizes)]
		m, err := permutationFCT(n.tp, n.sel, size, p)
		if err != nil {
			vals[idx] = "stall"
			return
		}
		vals[idx] = secs(m)
	})
	for ni, n := range nets {
		row := append([]string{n.name}, vals[ni*len(sizes):(ni+1)*len(sizes)]...)
		t.Rows = append(t.Rows, row)
	}
	return t
}

func byteLabel(b int64) string {
	switch {
	case b >= 1_000_000_000:
		return fmt.Sprintf("%dGB", b/1_000_000_000)
	case b >= 1_000_000:
		return fmt.Sprintf("%dMB", b/1_000_000)
	default:
		return fmt.Sprintf("%dkB", b/1_000)
	}
}

func runFig13a(Params) Table {
	t := Table{
		ID:     "fig13a",
		Title:  "Published DC flow size CDFs (paper Fig. 13a)",
		Note:   "embedded piecewise approximations of the published distributions",
		Header: []string{"trace", "P10", "P50", "P90", "P99", "mean"},
	}
	for _, c := range traces.All() {
		t.Rows = append(t.Rows, []string{
			c.Name,
			byteLabelF(c.Quantile(0.10)), byteLabelF(c.Quantile(0.50)),
			byteLabelF(c.Quantile(0.90)), byteLabelF(c.Quantile(0.99)),
			byteLabelF(c.MeanBytes()),
		})
	}
	return t
}

func byteLabelF(b float64) string {
	switch {
	case b >= 1e9:
		return fmt.Sprintf("%.1fGB", b/1e9)
	case b >= 1e6:
		return fmt.Sprintf("%.1fMB", b/1e6)
	case b >= 1e3:
		return fmt.Sprintf("%.1fkB", b/1e3)
	default:
		return fmt.Sprintf("%.0fB", b)
	}
}

// runTraceFCT implements fig13b/c and the appendix cells: closed-loop
// flows with sizes drawn from a published distribution, single-path
// routing, four concurrent flows per host.
func runTraceFCT(id string, cdf traces.SizeCDF, speed float64, topoKind string, p Params) Table {
	sw, deg, hps := 16, 4, 4
	flowsPerLoop := 4
	sizeCap := int64(20_000_000)
	if p.Scale == ScaleFull {
		sw, deg, hps = 98, 7, 7
		flowsPerLoop = 10
		sizeCap = 0
	}

	var nets []netUnderTest
	sel := workload.Selection{Policy: workload.ECMP}
	if topoKind == "fattree" {
		k := 6
		if p.Scale == ScaleFull {
			k = 14
		}
		nets = fatTreeNUT(k, 4, speed, sel, sel)
	} else {
		nets = jellyfishNUT(sw, deg, hps, 4, speed, p.Seed, sel, sel)
	}

	t := Table{
		ID:    id,
		Title: fmt.Sprintf("%s trace FCTs at %d/%dG on %s (paper Fig. 13/16-20)", cdf.Name, int(speed), int(speed)*4, topoKind),
		Note: fmt.Sprintf("closed loop, 4 flows/host, single-path routing, sizes from %s%s",
			cdf.Name, capNote(sizeCap)),
		Header: []string{"network", "median", "p90", "p99", "mean"},
	}
	// One cell per network: each owns a driver and a trace workload
	// seeded from p.Seed, so the four networks simulate concurrently.
	rows := make([][]string, len(nets))
	par.Do(len(nets), func(i int) {
		n := nets[i]
		d := p.newDriver(n.tp, sim.Config{}, tcp.Config{})
		res, err := workload.RunTrace(d, workload.TraceConfig{
			CDF:          cdf,
			LoopsPerHost: 4,
			FlowsPerLoop: flowsPerLoop,
			SizeCap:      sizeCap,
			Sel:          n.sel,
			Seed:         p.Seed,
			Deadline:     300 * sim.Second,
		})
		if err != nil {
			rows[i] = []string{n.name, "stall", "", "", ""}
			return
		}
		s := metrics.Summarize(res.FCTs)
		rows[i] = []string{n.name, secs(s.Median), secs(s.P90), secs(s.P99), secs(s.Mean)}
	})
	t.Rows = append(t.Rows, rows...)
	return t
}

func capNote(cap int64) string {
	if cap == 0 {
		return ""
	}
	return fmt.Sprintf(" (sizes capped at %s)", byteLabel(cap))
}

func runFigAppendix(p Params) Table {
	// Small scale: websearch + datamining at both speeds on Jellyfish
	// (the paper's representative pair); full scale: all five traces on
	// both topology families.
	cdfs := []traces.SizeCDF{traces.WebSearch, traces.DataMining}
	topos := []string{"jellyfish"}
	if p.Scale == ScaleFull {
		cdfs = traces.All()
		topos = []string{"fattree", "jellyfish"}
	}
	speeds := []float64{10, 100}

	out := Table{
		ID:     "figapp",
		Title:  "Appendix FCT sweep (paper Figs. 16-20)",
		Note:   "median/p99 FCT per network; rows = trace x speed x topology x network",
		Header: []string{"trace", "speed", "topology", "network", "median", "p99"},
	}
	// The outer sweep stays serial (rows must interleave in trace/speed/
	// topology order); each runTraceFCT fans its four networks out, and
	// nested calls degrade gracefully once the worker pool is saturated.
	for _, cdf := range cdfs {
		for _, sp := range speeds {
			for _, tk := range topos {
				sub := runTraceFCT("cell", cdf, sp, tk, p)
				for _, row := range sub.Rows {
					median, p99 := "stall", ""
					if len(row) >= 4 && row[1] != "stall" {
						median, p99 = row[1], row[3]
					}
					out.Rows = append(out.Rows, []string{
						cdf.Name, fmt.Sprintf("%d/%dG", int(sp), int(sp)*4), tk, row[0], median, p99,
					})
				}
			}
		}
	}
	return out
}
