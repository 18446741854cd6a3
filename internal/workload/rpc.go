package workload

import (
	"fmt"
	"math/rand"

	"pnet/internal/sim"
	"pnet/internal/tcp"
)

// RPCConfig describes the ping-pong RPC workload of §5.2.1: every host
// runs closed request/response loops against random servers and measures
// end-to-end request completion time (request sent → response fully
// received back at the client).
type RPCConfig struct {
	// ReqBytes and RespBytes size the two directions (the paper uses a
	// 1500 B request with an equal response for Figure 10, and 100 kB
	// requests for the concurrency sweep of Figure 11).
	ReqBytes, RespBytes int64
	// Rounds is the number of request/response cycles per loop.
	Rounds int
	// LoopsPerHost is the number of concurrent loops each host runs
	// (Figure 11 sweeps 1..10).
	LoopsPerHost int
	// Sel routes both request and response.
	Sel Selection
	// Seed drives destination sampling.
	Seed int64
	// Deadline bounds the simulation; zero selects 30 s.
	Deadline sim.Time
}

func (c RPCConfig) deadline() sim.Time {
	if c.Deadline == 0 {
		return 30 * sim.Second
	}
	return c.Deadline
}

// RunRPC executes the workload and returns one completion time per
// request, in seconds.
func RunRPC(d *Driver, cfg RPCConfig) ([]float64, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	hosts := d.PNet.Topo.Hosts
	n := len(hosts)
	var samples []float64
	expected := int64(n * cfg.LoopsPerHost * cfg.Rounds)

	// One closed loop: request to a random server; the server's receipt
	// triggers the response; the client's receipt records a sample and
	// starts the next round.
	var startRound func(client int, round int)
	startRound = func(client, round int) {
		if round >= cfg.Rounds {
			return
		}
		server := rng.Intn(n - 1)
		if server >= client {
			server++
		}
		t0 := d.Eng.Now()
		_, err := d.StartFlow(hosts[client], hosts[server], cfg.ReqBytes, cfg.Sel,
			func(*tcp.Flow) {
				// Server received the request: send the response.
				_, err := d.StartFlow(hosts[server], hosts[client], cfg.RespBytes, cfg.Sel,
					func(*tcp.Flow) {
						samples = append(samples, (d.Eng.Now() - t0).Seconds())
						startRound(client, round+1)
					}, nil)
				if err != nil {
					panic(err)
				}
			}, nil)
		if err != nil {
			panic(err)
		}
	}

	for h := 0; h < n; h++ {
		for l := 0; l < cfg.LoopsPerHost; l++ {
			startRound(h, 0)
		}
	}
	// Step rather than run to the deadline: background workloads (e.g.
	// an isolation experiment's bulk tenant) may generate events forever.
	deadline := cfg.deadline()
	for int64(len(samples)) < expected && d.Eng.Now() < deadline {
		if !d.Eng.Step() {
			break
		}
	}
	if int64(len(samples)) < expected {
		return samples, fmt.Errorf("workload: %d of %d RPCs completed (drops=%d)",
			len(samples), expected, d.Net.TotalDrops())
	}
	return samples, nil
}
