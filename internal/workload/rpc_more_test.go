package workload

import (
	"strings"
	"testing"

	"pnet/internal/obs"
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

// TestRunRPCNoPathIsError: a loop whose flow cannot start ends the run with
// an error naming the pair, whether the first request finds no path or a
// response does later, from inside a delivery callback. Both used to panic.
func TestRunRPCNoPathIsError(t *testing.T) {
	cfg := RPCConfig{
		ReqBytes: 1500, RespBytes: 1500,
		Rounds: 3, LoopsPerHost: 1,
		Sel:  Selection{Policy: ECMP},
		Seed: 1,
	}
	allDown := func(d *Driver) {
		for p := 0; p < d.PNet.Planes(); p++ {
			d.PNet.MarkPlaneDown(p)
		}
	}
	for _, tc := range []struct {
		name, want string
		setup      func(d *Driver)
	}{
		{"request", "RPC request from host 0 to host ", allDown},
		// The requests already sent still arrive: marking planes down is
		// the hosts' routing view, not a fault in the fabric.
		{"response", "RPC response from host ", func(d *Driver) { d.Eng.At(1, func() { allDown(d) }) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := newTestDriver(t, topo.ScaledJellyfish(8, 2, 100, 3).ParallelHomo)
			tc.setup(d)
			samples, err := RunRPC(d, cfg)
			if err == nil {
				t.Fatal("no error")
			}
			if msg := err.Error(); !strings.Contains(msg, tc.want) || !strings.Contains(msg, "no ECMP path") {
				t.Errorf("error %q, want one naming %q and the missing path", msg, tc.want)
			}
			if len(samples) != 0 {
				t.Errorf("%d samples from a network with no paths", len(samples))
			}
		})
	}
}

// flowSink keeps the flow records a collector passes on.
type flowSink struct{ flows []obs.FlowRecord }

func (s *flowSink) Flow(r obs.FlowRecord)           { s.flows = append(s.flows, r) }
func (*flowSink) Link(obs.LinkRecord)               {}
func (*flowSink) Plane(obs.PlaneRecord)             {}
func (*flowSink) Engine(obs.EngineRecord)           {}
func (*flowSink) Solver(obs.SolverRecord)           {}
func (*flowSink) Fault(obs.FaultRecord)             {}
func (*flowSink) Fingerprint(obs.FingerprintRecord) {}

// TestRPCResponseReturnsToClient: every round is a request from the
// client to its server and a response from that server back, as the
// driver's flow records show.
func TestRPCResponseReturnsToClient(t *testing.T) {
	tp := topo.ScaledJellyfish(8, 2, 100, 3).ParallelHomo
	d := newTestDriver(t, tp)
	c := obs.NewCollector()
	sink := &flowSink{}
	c.Sink = sink
	d.Instrument(c)
	const rounds = 2
	if _, err := RunRPC(d, RPCConfig{
		ReqBytes: 3000, RespBytes: 1500,
		Rounds: rounds, LoopsPerHost: 1,
		Sel:  Selection{Policy: ECMP},
		Seed: 1,
	}); err != nil {
		t.Fatal(err)
	}
	// RunRPC returns once the last response is delivered; records are
	// written when a flow's last ACK is back at its sender.
	d.Eng.RunUntil(d.Eng.Now() + sim.Second)
	if d.Completed != d.Flows {
		t.Fatalf("%d of %d flows completed", d.Completed, d.Flows)
	}
	type pair struct{ client, server int64 }
	open := map[pair]int{}
	asClient := map[int64]int{}
	for _, f := range sink.flows {
		switch f.Bytes {
		case 3000:
			open[pair{f.Src, f.Dst}]++
			asClient[f.Src]++
		case 1500:
			open[pair{f.Dst, f.Src}]--
		}
	}
	for p, n := range open {
		if n != 0 {
			t.Errorf("client %d, server %d: %d more requests than responses", p.client, p.server, n)
		}
	}
	for _, h := range tp.Hosts {
		if asClient[int64(h)] != rounds {
			t.Errorf("host %d sent %d requests, want %d", h, asClient[int64(h)], rounds)
		}
	}
}
