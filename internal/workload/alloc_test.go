package workload

import (
	"runtime"
	"runtime/debug"
	"testing"

	"pnet/internal/topo"
)

// raceEnabled is set under -race (raceon_test.go).
var raceEnabled bool

// TestStartFlowAllocBudget: starting a one-packet ECMP flow and running it
// to completion on a warm driver, whose DAG for the pair is already built,
// costs at most three heap objects: the flow's block, which holds its
// route and the reverse, its RTO event, and the RTO callback bound once
// for the block. The flow is not released, so each block is new. It was
// 12 when every flow walked a fresh route, wrapped it in a fresh slice
// and built three closures.
func TestStartFlowAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	tp := topo.ScaledJellyfish(8, 2, 100, 3).ParallelHomo
	d := newTestDriver(t, tp)
	src, dst := tp.Hosts[0], tp.Hosts[9]
	flow := func() {
		if _, err := d.StartFlow(src, dst, 1500, Selection{Policy: ECMP}, nil, nil); err != nil {
			t.Fatal(err)
		}
		d.Eng.Run()
	}
	// Warm: the DAG built, packet pool and event heap grown.
	for i := 0; i < 256; i++ {
		flow()
	}
	if avg := testing.AllocsPerRun(100, flow); avg > 3 {
		t.Errorf("a one-packet ECMP flow costs %.2f heap objects, want at most 3", avg)
	}
	if d.Completed != d.Flows {
		t.Errorf("%d of %d flows completed", d.Completed, d.Flows)
	}
}

// TestRPCFlowAllocBudget: on a warm RunRPC loop a flow costs at most 128
// bytes of heap, counted over whole runs, so the run's own setup is
// included. RunRPC releases its flows, so a flow's 512-byte block, with
// its route, reverse and bound RTO callback, is one a finished flow left
// behind; what is left is its RTO event (48 bytes) and its share of the
// samples and the run's setup: 91.5 bytes and 1.03 objects. Bytes, not
// objects: a block allocated fresh would still be one object.
func TestRPCFlowAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates, and drops pooled blocks at random")
	}
	tp := topo.ScaledJellyfish(8, 2, 100, 3).ParallelHomo
	d := newTestDriver(t, tp)
	cfg := RPCConfig{ReqBytes: 1500, RespBytes: 1500, Rounds: 50, LoopsPerHost: 1, Sel: Selection{Policy: ECMP}, Seed: 1}
	run := func() {
		if _, err := RunRPC(d, cfg); err != nil {
			t.Fatal(err)
		}
	}
	// Warm: the pairs' DAGs built, packet pool and event heap grown, and
	// blocks released.
	run()
	// A collection empties the pool; the budget holds for a run between
	// two of them.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	flows := d.Flows
	run()
	runtime.ReadMemStats(&after)
	flows = d.Flows - flows
	perFlow := float64(after.TotalAlloc-before.TotalAlloc) / float64(flows)
	t.Logf("%d flows, %.1f bytes and %.2f objects per flow", flows, perFlow,
		float64(after.Mallocs-before.Mallocs)/float64(flows))
	if perFlow > 128 {
		t.Errorf("a warm RPC flow costs %.1f bytes of heap, want at most 128", perFlow)
	}
}
