package workload

import (
	"fmt"
	"math/rand"

	"pnet/internal/graph"
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
// request, in seconds. If a flow cannot start (no path between a client
// and its server), that loop stops, the run ends, and the first such error
// is returned with the samples so far.
func RunRPC(d *Driver, cfg RPCConfig) ([]float64, error) {
	hosts := d.PNet.Topo.Hosts
	n := len(hosts)
	expected := int64(n * cfg.LoopsPerHost * cfg.Rounds)
	r := &rpcRun{d: d, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), hosts: hosts,
		samples: make([]float64, 0, expected)}

	for h := 0; h < n; h++ {
		for l := 0; l < cfg.LoopsPerHost; l++ {
			loop := &rpcLoop{run: r, client: h}
			loop.requested = loop.respond
			loop.answered = loop.finish
			loop.request()
		}
	}
	// Step rather than run to the deadline: background workloads (e.g.
	// an isolation experiment's bulk tenant) may generate events forever.
	deadline := cfg.deadline()
	for r.err == nil && int64(len(r.samples)) < expected && d.Eng.Now() < deadline {
		if !d.Eng.Step() {
			break
		}
	}
	if r.err != nil {
		return r.samples, r.err
	}
	if int64(len(r.samples)) < expected {
		return r.samples, fmt.Errorf("workload: %d of %d RPCs completed (drops=%d)",
			len(r.samples), expected, d.Net.TotalDrops())
	}
	return r.samples, nil
}

// rpcRun is what a run's loops share.
type rpcRun struct {
	d       *Driver
	cfg     RPCConfig
	rng     *rand.Rand
	hosts   []graph.NodeID
	samples []float64
	err     error // the first flow that could not start
}

// rpcLoop is one closed loop: a request to a random server; the server's
// receipt triggers the response; the client's receipt records a sample and
// starts the next round. Its two callbacks are bound once, so a round
// builds no closure.
type rpcLoop struct {
	run                 *rpcRun
	client, server      int
	round               int
	t0                  sim.Time
	requested, answered func(*tcp.Flow) // respond and finish
}

// request starts the loop's current round.
func (l *rpcLoop) request() {
	r := l.run
	if l.round >= r.cfg.Rounds {
		return
	}
	l.server = r.rng.Intn(len(r.hosts) - 1)
	if l.server >= l.client {
		l.server++
	}
	l.t0 = r.d.Eng.Now()
	if err := r.d.startRPCFlow(r.hosts[l.client], r.hosts[l.server], r.cfg.ReqBytes, r.cfg.Sel, l.requested); err != nil {
		r.fail(fmt.Errorf("workload: RPC request from host %d to host %d: %w", l.client, l.server, err))
	}
}

// respond runs when the server has the whole request.
func (l *rpcLoop) respond(*tcp.Flow) {
	r := l.run
	if err := r.d.startRPCFlow(r.hosts[l.server], r.hosts[l.client], r.cfg.RespBytes, r.cfg.Sel, l.answered); err != nil {
		r.fail(fmt.Errorf("workload: RPC response from host %d to host %d: %w", l.server, l.client, err))
	}
}

// finish runs when the client has the whole response.
func (l *rpcLoop) finish(*tcp.Flow) {
	r := l.run
	r.samples = append(r.samples, (r.d.Eng.Now() - l.t0).Seconds())
	l.round++
	l.request()
}

func (r *rpcRun) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}
