package tcp

import (
	"testing"

	"pnet/internal/graph"
	"pnet/internal/route"
	"pnet/internal/sim"
)

// componentSums folds the per-(component, plane) totals by component.
func componentSums(totals []sim.SpanTotal) map[sim.SpanComponent]sim.Time {
	out := map[sim.SpanComponent]sim.Time{}
	for _, t := range totals {
		out[t.Comp] += t.Dur
	}
	return out
}

// checkConservation asserts the tentpole invariant: the span components
// sum to the flow's FCT exactly, with no residual.
func checkConservation(t *testing.T, f *Flow) map[sim.SpanComponent]sim.Time {
	t.Helper()
	if got, want := f.AttributedTime(), f.FCT(); got != want {
		t.Fatalf("attributed time %v != FCT %v (residual %v)", got, want, want-got)
	}
	return componentSums(f.Attribution())
}

func TestSpanConservationCleanFlow(t *testing.T) {
	eng, net, p := dumbbell(100, sim.Config{})
	net.EnableSpans()
	f, err := NewFlow(net, Config{}, []graph.Path{p}, 100*1500)
	if err != nil {
		t.Fatal(err)
	}
	runFlow(t, eng, f)
	sums := checkConservation(t, f)
	if sums[sim.SpanSerialize] == 0 || sums[sim.SpanPropagate] == 0 {
		t.Errorf("clean flow missing wire components: %v", sums)
	}
	if sums[sim.SpanRTOStall] != 0 || sums[sim.SpanRepathGap] != 0 {
		t.Errorf("clean flow charged stall time: %v", sums)
	}
}

func TestSpanConservationRTO(t *testing.T) {
	// The RTO-floor scenario: a 2-packet flow through a 1-packet queue
	// loses the tail packet and waits out the 10ms minimum timeout. That
	// dead time must land in rto_stall, and the books must still balance.
	eng, net, p := dumbbell(100, sim.Config{QueueBytes: 1500})
	net.EnableSpans()
	f, _ := NewFlow(net, Config{}, []graph.Path{p}, 2*1500)
	runFlow(t, eng, f)
	sums := checkConservation(t, f)
	if sums[sim.SpanRTOStall] < 5*sim.Millisecond {
		t.Errorf("rto_stall = %v, want most of the 10ms RTO", sums[sim.SpanRTOStall])
	}
}

func TestSpanConservationBurstLoss(t *testing.T) {
	// Tiny queue + slow-start overshoot: drops recovered mostly by fast
	// retransmit. Queueing dominates, and the partition stays exact even
	// with reordered repair traffic in flight.
	eng, net, p := dumbbell(100, sim.Config{QueueBytes: 8 * 1500})
	net.EnableSpans()
	f, _ := NewFlow(net, Config{}, []graph.Path{p}, 200*1500)
	runFlow(t, eng, f)
	if f.Retransmits == 0 {
		t.Fatal("scenario produced no retransmits")
	}
	checkConservation(t, f)
}

func TestSpanConservationQueueing(t *testing.T) {
	// Cross traffic: seven flows' first windows, a 70-packet burst, fill
	// the shared host egress queue just before a 1-packet flow starts.
	// The small flow's packet waits behind the burst, and that wait must
	// surface as queue time.
	eng, net, p := dumbbell(100, sim.Config{})
	net.EnableSpans()
	var burst []*Flow
	for range 7 {
		f, _ := NewFlow(net, Config{}, []graph.Path{p}, initCwnd*mtu)
		f.Start()
		burst = append(burst, f)
	}
	small, _ := NewFlow(net, Config{}, []graph.Path{p}, 1500)
	small.Start()
	eng.RunUntil(20 * sim.Second)
	for _, f := range append(burst, small) {
		if !f.Done() {
			t.Fatal("flows did not complete")
		}
	}
	sums := checkConservation(t, small)
	// 69 packets ahead at 120ns each ≈ 8.3us of waiting.
	if sums[sim.SpanQueue] < 5*sim.Microsecond {
		t.Errorf("queue = %v, want >= 5us behind the burst", sums[sim.SpanQueue])
	}
}

func TestSpanConservationRepath(t *testing.T) {
	// Plane 0 dies mid-transfer; the flow stalls, repaths to plane 1,
	// and finishes. The detection window is charged to repath_gap.
	eng, net, paths := twoPlane(100)
	net.EnableSpans()
	f, err := NewFlow(net, Config{}, paths[:1], 3000*1500)
	if err != nil {
		t.Fatal(err)
	}
	f.Repath = func(fl *Flow, i int) (graph.Path, bool) { return paths[1], true }
	eng.At(50*sim.Microsecond, func() { cutPath(net, paths[0], false) })
	runFlow(t, eng, f)
	if f.Repaths != 1 {
		t.Fatalf("Repaths = %d, want 1", f.Repaths)
	}
	sums := checkConservation(t, f)
	// Stall detection takes one RTO (rtoMin, 10ms), charged with the
	// post-swap catch-up to repath_gap.
	if sums[sim.SpanRepathGap] == 0 {
		t.Errorf("repath flow charged no repath_gap: %v", sums)
	}
	if stall := sums[sim.SpanRTOStall] + sums[sim.SpanRepathGap]; stall < rtoMin || stall > f.FCT() {
		t.Errorf("stall components sum to %v, want the ~10ms outage of a %v flow", stall, f.FCT())
	}
}

func TestSpanConservationMPTCP(t *testing.T) {
	// A two-subflow MPTCP transfer over disjoint planes: attribution
	// stays exact when ACKs from both subflows interleave, and the
	// per-plane totals show both planes carried wire time. The planes
	// run at different speeds — with identical planes both subflows ACK
	// at the same instants, and the tie-winner absorbs the whole
	// progress interval, leaving the other plane legitimately at zero.
	g := graph.New(4)
	g.SetTransit(0, false)
	g.SetTransit(1, false)
	g.AddDuplex(0, 2, 100, 0)
	g.AddDuplex(2, 1, 100, 0)
	g.AddDuplex(0, 3, 40, 1)
	g.AddDuplex(3, 1, 40, 1)
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, g, sim.Config{})
	paths := route.AcrossPlanes(g, g.PlaneMasks(), []route.Commodity{{Src: 0, Dst: 1, Demand: 1}}, 2, nil)[0]
	if len(paths) != 2 {
		t.Fatal("expected 2 disjoint paths")
	}
	net.EnableSpans()
	f, _ := NewFlow(net, Config{}, paths, 2_000_000)
	runFlow(t, eng, f)
	checkConservation(t, f)
	planes := map[int32]sim.Time{}
	for _, tot := range f.Attribution() {
		if tot.Comp == sim.SpanSerialize || tot.Comp == sim.SpanPropagate {
			planes[tot.Plane] += tot.Dur
		}
	}
	if planes[0] == 0 || planes[1] == 0 {
		t.Errorf("wire time per plane = %v, want both planes > 0", planes)
	}
}

func TestSpanDisabledNoAttribution(t *testing.T) {
	eng, net, p := dumbbell(100, sim.Config{})
	f, _ := NewFlow(net, Config{}, []graph.Path{p}, 10*1500)
	runFlow(t, eng, f)
	if got := f.Attribution(); len(got) != 0 {
		t.Errorf("spans disabled but attribution = %v", got)
	}
	if f.AttributedTime() != 0 {
		t.Errorf("spans disabled but attributed time = %v", f.AttributedTime())
	}
}
