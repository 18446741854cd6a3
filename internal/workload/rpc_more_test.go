package workload

import (
	"testing"

	"pnet/internal/sim"
	"pnet/internal/tcp"
	"pnet/internal/topo"
)

func TestRPCDeadlineReportsShortfall(t *testing.T) {
	set := topo.ScaledJellyfish(8, 2, 100, 3)
	d := newTestDriver(t, set.ParallelHomo)
	// An impossible deadline: 1 µs for multi-round RPCs.
	samples, err := RunRPC(d, RPCConfig{
		ReqBytes: 1500, RespBytes: 1500,
		Rounds: 5, LoopsPerHost: 1,
		Sel:      Selection{Policy: ECMP},
		Seed:     1,
		Deadline: sim.Microsecond,
	})
	if err == nil {
		t.Error("no error for unmet deadline")
	}
	if len(samples) != 0 {
		t.Errorf("samples = %d within 1us", len(samples))
	}
}

func TestRPCAsymmetricSizes(t *testing.T) {
	// 100 kB request, tiny response (the Figure 11 configuration).
	set := topo.ScaledJellyfish(8, 2, 100, 3)
	d := newTestDriver(t, set.ParallelHomo)
	samples, err := RunRPC(d, RPCConfig{
		ReqBytes: 100_000, RespBytes: 1500,
		Rounds: 2, LoopsPerHost: 1,
		Sel:  Selection{Policy: ECMP},
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := set.ParallelHomo.NumHosts() * 2
	if len(samples) != want {
		t.Fatalf("samples = %d, want %d", len(samples), want)
	}
	// A 100 kB request takes at least its serialization time (~8 µs).
	for _, s := range samples {
		if s < 8e-6 {
			t.Fatalf("sample %v below serialization floor", s)
		}
	}
}

func TestDriverCounters(t *testing.T) {
	set := topo.ScaledJellyfish(8, 2, 100, 3)
	d := newTestDriver(t, set.ParallelHomo)
	tp := set.ParallelHomo
	for i := 0; i < 3; i++ {
		if _, err := d.StartFlow(tp.Hosts[i], tp.Hosts[i+8], 15_000,
			Selection{Policy: ECMP}, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	if d.Flows != 3 {
		t.Errorf("Flows = %d", d.Flows)
	}
	if err := d.MustRunUntil(sim.Second, 3); err != nil {
		t.Fatal(err)
	}
	if d.Completed != 3 {
		t.Errorf("Completed = %d", d.Completed)
	}
}

func TestStartFlowUnreachableErrors(t *testing.T) {
	set := topo.ScaledJellyfish(8, 2, 100, 3)
	d := newTestDriver(t, set.ParallelHomo)
	tp := set.ParallelHomo
	for p := 0; p < tp.Planes; p++ {
		tp.G.SetLinkUp(tp.Uplinks[0][p], false)
	}
	_, err := d.StartFlow(tp.Hosts[0], tp.Hosts[5], 1500, Selection{Policy: Shortest}, nil, nil)
	if err == nil {
		t.Error("no error for host with all uplinks down")
	}
	_ = tcp.Config{}
}
