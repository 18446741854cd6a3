// Performance isolation via plane assignment (paper §7).
//
// P-Net's dataplanes share nothing but the hosts, so pinning traffic
// classes to disjoint plane subsets gives strict performance isolation
// with no in-network scheduler: here a bulk-analytics tenant saturates
// planes 0-1 while a latency tenant's RPCs stay untouched on planes 2-3.
//
//	go run ./examples/isolation
package main

import (
	"fmt"
	"log"

	"pnet/internal/metrics"
	"pnet/internal/sim"
	"pnet/internal/tcp"
	"pnet/internal/topo"
	"pnet/internal/workload"
)

func main() {
	set := topo.ScaledJellyfish(12, 4, 100, 21) // 48 hosts, 4 planes
	tp := set.ParallelHomo

	scenario := func(name string, bulkSel, rpcSel workload.Selection, classes bool) {
		d := workload.NewDriver(tp, sim.Config{}, tcp.Config{})
		if classes {
			if err := d.PNet.SetClass("bulk", []int{0, 1}); err != nil {
				log.Fatal(err)
			}
			if err := d.PNet.SetClass("latency", []int{2, 3}); err != nil {
				log.Fatal(err)
			}
		}
		// Bulk tenant: 16 hosts run closed loops of 10 MB transfers.
		hosts := tp.Hosts
		if name != "unloaded" {
			for h := 0; h < 16; h++ {
				src, dst := hosts[h], hosts[(h+11)%len(hosts)]
				var loop func()
				loop = func() {
					if _, err := d.StartFlow(src, dst, 10<<20, bulkSel, nil,
						func(*tcp.Flow) { loop() }); err != nil {
						log.Fatal(err)
					}
				}
				loop()
			}
		}
		// Latency tenant: ping-pong RPCs from every host.
		samples, err := workload.RunRPC(d, workload.RPCConfig{
			ReqBytes: 1500, RespBytes: 1500,
			Rounds: 8, LoopsPerHost: 1,
			Sel:      rpcSel,
			Seed:     5,
			Deadline: sim.Second,
		})
		if err != nil {
			log.Printf("%s: %v (reporting completed samples)", name, err)
		}
		if len(samples) == 0 {
			fmt.Printf("%-18s stall: no RPC completed\n", name)
			return
		}
		s := metrics.Summarize(samples)
		fmt.Printf("%-18s rpc median %8.2fus   p99 %10.2fus\n",
			name, s.Median*1e6, s.P99*1e6)
	}

	fmt.Println("latency-tenant RPC statistics under a bulk tenant:")
	scenario("unloaded", workload.Selection{}, workload.Selection{Policy: workload.ECMP}, false)
	scenario("shared planes",
		workload.Selection{Policy: workload.ECMP},
		workload.Selection{Policy: workload.ECMP}, false)
	scenario("isolated planes",
		workload.Selection{Policy: workload.ECMP, Class: "bulk"},
		workload.Selection{Policy: workload.ECMP, Class: "latency"}, true)

	fmt.Println("\nWith planes 0-1 reserved for bulk and 2-3 for latency traffic,")
	fmt.Println("the RPC tail returns to its unloaded value — strict isolation")
	fmt.Println("from topology alone, as §7 of the paper proposes.")
}
