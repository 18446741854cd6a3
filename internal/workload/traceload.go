package workload

import (
	"fmt"
	"math/rand"

	"pnet/internal/sim"
	"pnet/internal/tcp"
	"pnet/internal/traces"
)

// TraceConfig describes the trace-driven workload of §5.3: every host runs
// a fixed number of concurrent closed loops, each drawing flow sizes from
// a published datacenter distribution and sending to a random destination.
type TraceConfig struct {
	// CDF is the flow-size distribution.
	CDF traces.SizeCDF
	// LoopsPerHost is the closed-loop concurrency (paper: 4).
	LoopsPerHost int
	// FlowsPerLoop is how many flows each loop completes.
	FlowsPerLoop int
	// SizeCap truncates sampled sizes (0 = uncapped). Reduced-scale runs
	// cap the multi-GB tail to keep packet counts tractable; see
	// EXPERIMENTS.md.
	SizeCap int64
	// Sel routes every flow (paper: single-path for closed-loop traces).
	Sel  Selection
	Seed int64
}

// traceDeadline bounds a trace run's simulated time.
const traceDeadline = 300 * sim.Second

// TraceResult carries per-flow observations.
type TraceResult struct {
	// FCTs are flow completion times in seconds.
	FCTs []float64
	// Bytes are the corresponding flow sizes.
	Bytes []int64
}

// RunTrace executes the workload and returns per-flow completion times.
// If a flow cannot start (no path between a client and its destination),
// the run ends and that error is returned with the flows so far.
func RunTrace(d *Driver, cfg TraceConfig) (TraceResult, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	hosts := d.PNet.Topo.Hosts
	n := len(hosts)
	var res TraceResult
	var startErr error
	expected := int64(n * cfg.LoopsPerHost * cfg.FlowsPerLoop)

	var startFlow func(client, round int)
	startFlow = func(client, round int) {
		if round >= cfg.FlowsPerLoop || startErr != nil {
			return
		}
		dst := rng.Intn(n - 1)
		if dst >= client {
			dst++
		}
		size := cfg.CDF.Sample(rng)
		if cfg.SizeCap > 0 && size > cfg.SizeCap {
			size = cfg.SizeCap
		}
		if size < 1 {
			size = 1
		}
		_, err := d.StartFlow(hosts[client], hosts[dst], size, cfg.Sel, nil,
			func(f *tcp.Flow) {
				res.FCTs = append(res.FCTs, f.FCT().Seconds())
				res.Bytes = append(res.Bytes, size)
				startFlow(client, round+1)
			})
		if err != nil {
			startErr = fmt.Errorf("workload: trace flow from host %d to host %d: %w", client, dst, err)
		}
	}

	for h := 0; h < n; h++ {
		for l := 0; l < cfg.LoopsPerHost; l++ {
			startFlow(h, 0)
		}
	}
	for startErr == nil && int64(len(res.FCTs)) < expected && d.Eng.Now() < traceDeadline {
		if !d.Eng.Step() {
			break
		}
	}
	if startErr != nil {
		return res, startErr
	}
	if int64(len(res.FCTs)) < expected {
		return res, fmt.Errorf("workload: %d of %d trace flows completed (drops=%d)",
			len(res.FCTs), expected, d.Net.TotalDrops())
	}
	return res, nil
}
