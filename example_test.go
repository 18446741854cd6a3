package pnet_test

import (
	"fmt"
	"log"

	"pnet/internal/core"
	"pnet/internal/sim"
	"pnet/internal/tcp"
	"pnet/internal/topo"
	"pnet/internal/workload"
)

// Example builds a 2-plane parallel fat tree, inspects the end-host view,
// routes a flow, and measures it in the packet simulator.
//
//	go test -run '^Example$' -v .
func Example() {
	// 1. Build the network set of the paper's evaluation: a serial
	// low-bandwidth fat tree, its 2-plane parallel twin, and the ideal
	// serial high-bandwidth network.
	set := topo.FatTreeSet(4, 2, 100) // k=4 (16 hosts), 2 planes, 100 Gb/s links
	pn := set.ParallelHomo
	fmt.Printf("network %q: %d hosts, %d planes, %.0f Gb/s per host total\n",
		pn.Name, pn.NumHosts(), pn.Planes, float64(pn.Planes)*pn.LinkSpeed)

	// 2. The end-host control plane: P-Net hosts pick dataplanes and
	// paths themselves.
	host := core.New(pn)
	src, dst := pn.Hosts[0], pn.Hosts[15]

	low, _ := host.LowLatencyPath(src, dst)
	fmt.Printf("low-latency path: %d hops on plane %d\n", low.Len(), low.Plane(pn.G))

	multi := host.HighThroughputPaths(src, dst, 4)
	fmt.Printf("high-throughput interface: %d paths across planes {", len(multi))
	for i, p := range multi {
		if i > 0 {
			fmt.Print(" ")
		}
		fmt.Print(p.Plane(pn.G))
	}
	fmt.Println("}")

	// 3. Run a 10 MB MPTCP transfer over both planes in the packet
	// simulator and compare with the serial low-bandwidth network.
	run := func(tp *topo.Topology, sel workload.Selection) sim.Time {
		d := workload.NewDriver(tp, sim.Config{}, tcp.Config{})
		var fct sim.Time
		_, err := d.StartFlow(tp.Hosts[0], tp.Hosts[15], 10<<20, sel, nil,
			func(f *tcp.Flow) { fct = f.FCT() })
		if err != nil {
			log.Fatal(err)
		}
		if err := d.MustRunUntil(10*sim.Second, 1); err != nil {
			log.Fatal(err)
		}
		return fct
	}
	serial := run(set.SerialLow, workload.Selection{Policy: workload.Shortest})
	parallel := run(set.ParallelHomo, workload.Selection{Policy: workload.KSP, K: 4})
	fmt.Printf("10 MB flow FCT: serial 1x100G %v, parallel 2x100G (4-way MPTCP) %v (%.2fx speedup)\n",
		serial, parallel, float64(serial)/float64(parallel))

	// Output:
	// network "parallel-homo ft4 2x100G": 16 hosts, 2 planes, 200 Gb/s per host total
	// low-latency path: 6 hops on plane 0
	// high-throughput interface: 4 paths across planes {0 1 0 1}
	// 10 MB flow FCT: serial 1x100G 885.787us, parallel 2x100G (4-way MPTCP) 456.104us (1.94x speedup)
}
