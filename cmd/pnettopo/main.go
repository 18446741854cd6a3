// Command pnettopo inspects P-Net topologies: sizes, per-plane structure,
// hop-count distributions, host redundancy (link-disjoint paths), and the
// §6.1 deployment plans with and without cable bundling and patch panels.
//
// Usage:
//
//	pnettopo -topo fattree -k 8 -planes 4
//	pnettopo -topo jellyfish -switches 98 -degree 7 -hostsper 7 -planes 4 -hetero
//	pnettopo -topo mixed -k 8 -planes 4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"

	"pnet/internal/graph"
	"pnet/internal/topo"
	"pnet/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: 0 ok, 2 usage error. Every flag is checked before a
// topology is built, so a bad value is one line on stderr, not a panic
// from a builder.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pnettopo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind     = fs.String("topo", "fattree", "fattree | jellyfish | mixed")
		k        = fs.Int("k", 8, "fat tree arity (fattree/mixed)")
		switches = fs.Int("switches", 24, "jellyfish switches")
		degree   = fs.Int("degree", 4, "jellyfish network degree")
		hostsPer = fs.Int("hostsper", 4, "jellyfish hosts per switch")
		planes   = fs.Int("planes", 4, "number of dataplanes")
		hetero   = fs.Bool("hetero", false, "heterogeneous planes (jellyfish)")
		speed    = fs.Float64("speed", 100, "link speed in Gb/s")
		seed     = fs.Int64("seed", 1, "random seed")
		pairs    = fs.Int("pairs", 1000, "sampled host pairs for hop statistics")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// One case per kind: the builder's own precondition, then the build,
	// which runs only once every flag has passed.
	var err error
	var build func() *topo.Topology
	switch *kind {
	case "fattree":
		err = topo.CheckFatTree(*k, *planes)
		build = func() *topo.Topology {
			set := topo.FatTreeSet(*k, *planes, *speed)
			if *planes == 1 {
				return set.SerialLow
			}
			return set.ParallelHomo
		}
	case "jellyfish":
		err = topo.CheckJellyfish(*switches, *degree, *hostsPer, *planes)
		build = func() *topo.Topology {
			set := topo.JellyfishSet(*switches, *degree, *hostsPer, *planes, *speed, *seed)
			switch {
			case *planes == 1:
				return set.SerialLow
			case *hetero:
				return set.ParallelHetero
			}
			return set.ParallelHomo
		}
	case "mixed":
		err = topo.CheckMixed(*k, *planes)
		build = func() *topo.Topology { return topo.MixedPNet(*k, *planes, *speed, *seed) }
	default:
		err = fmt.Errorf("unknown -topo %q (accepted: fattree, jellyfish, mixed)", *kind)
	}
	if err == nil && *pairs < 1 {
		err = fmt.Errorf("-pairs must be at least 1, got %d", *pairs)
	}
	if err != nil {
		fmt.Fprintf(stderr, "pnettopo: %v\n", err)
		return 2
	}
	tp := build()

	fmt.Fprintf(stdout, "topology: %s\n", tp.Name)
	fmt.Fprintf(stdout, "  hosts: %d   racks: %d   planes: %d   host bandwidth: %.0f Gb/s\n",
		tp.NumHosts(), tp.NumRacks, tp.Planes, tp.HostBandwidth())
	fmt.Fprintf(stdout, "  nodes: %d   directed links: %d\n", tp.G.NumNodes(), tp.G.NumLinks())
	for p := 0; p < tp.Planes; p++ {
		fmt.Fprintf(stdout, "  plane %d: %d switches\n", p, tp.SwitchCount[p])
	}

	// Hop-count distribution over sampled pairs.
	rng := rand.New(rand.NewSource(*seed))
	sample := workload.RandomPairs(tp, *pairs, rng)
	hist := map[int]int{}
	total, count := 0, 0
	for _, pr := range sample {
		if p, ok := graph.ShortestPath(tp.G, pr[0], pr[1]); ok {
			hist[p.Len()]++
			total += p.Len()
			count++
		}
	}
	fmt.Fprintf(stdout, "\nshortest-path hop distribution (%d sampled pairs):\n", count)
	for h := 0; h <= maxKey(hist); h++ {
		if n := hist[h]; n > 0 {
			fmt.Fprintf(stdout, "  %2d hops: %5.1f%%  %s\n", h, 100*float64(n)/float64(count),
				bar(40*n/count))
		}
	}
	fmt.Fprintf(stdout, "  mean: %.3f hops\n", float64(total)/float64(count))

	// Host redundancy.
	if count > 0 {
		pr := sample[0]
		dj := graph.EdgeDisjointPaths(tp.G, pr[0], pr[1], 0)
		fmt.Fprintf(stdout, "\nlink-disjoint host-to-host paths: %d (one per plane)\n", dj)
	}

	// Deployment plans.
	fmt.Fprintln(stdout, "\ndeployment plans (§6.1):")
	fmt.Fprintf(stdout, "  %-22s %12s %12s %12s %8s %14s\n",
		"options", "host cables", "core cables", "panel ports", "boxes", "transceivers")
	for _, o := range []struct {
		label string
		opts  topo.DeployOptions
	}{
		{"naive", topo.DeployOptions{}},
		{"bundled", topo.DeployOptions{Bundle: true}},
		{"bundled+patch-panel", topo.DeployOptions{Bundle: true, PatchPanel: true}},
	} {
		d := topo.PlanDeployment(tp, o.opts)
		fmt.Fprintf(stdout, "  %-22s %12d %12d %12d %8d %14d\n",
			o.label, d.HostCables, d.CoreCables, d.PatchPanelPorts, d.SwitchBoxes, d.Transceivers)
	}
	return 0
}

func maxKey(m map[int]int) int {
	max := 0
	for k := range m {
		if k > max {
			max = k
		}
	}
	return max
}

func bar(n int) string {
	if n < 0 {
		n = 0
	}
	b := make([]byte, n)
	for i := range b {
		b[i] = '#'
	}
	return string(b)
}
