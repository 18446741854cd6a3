package workload

import (
	"testing"

	"pnet/internal/topo"
)

// raceEnabled is set under -race (raceon_test.go).
var raceEnabled bool

// TestStartFlowAllocBudget: starting a one-packet ECMP flow and running it
// to completion on a warm driver, whose DAG and routes for the pair are
// already built, costs at most five heap objects. It is four: the flow,
// its reverse path, and the RTO event and its callback. It was 12 when
// every flow walked a fresh route, wrapped it in a fresh slice and built
// three closures.
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
	// Warm: every ECMP route of the pair interned, packet pool and event
	// heap grown.
	for i := 0; i < 256; i++ {
		flow()
	}
	if avg := testing.AllocsPerRun(100, flow); avg > 5 {
		t.Errorf("a one-packet ECMP flow costs %.2f heap objects, want at most 5", avg)
	}
	if d.Completed != d.Flows {
		t.Errorf("%d of %d flows completed", d.Completed, d.Flows)
	}
}
