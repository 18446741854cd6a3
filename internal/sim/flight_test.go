package sim

import (
	"testing"

	"pnet/internal/graph"
)

// twoPlanePair is two hosts joined through one switch per plane:
// 0 -sw(2+pl)- 1 on plane pl, with the host 0 to host 1 route of each.
func twoPlanePair() (*Engine, *Network, [2][]graph.LinkID) {
	g := graph.New(4)
	g.SetTransit(0, false)
	g.SetTransit(1, false)
	var routes [2][]graph.LinkID
	for pl := int32(0); pl < 2; pl++ {
		up, _ := g.AddDuplex(0, 2+graph.NodeID(pl), 100, pl)
		_, down := g.AddDuplex(1, 2+graph.NodeID(pl), 100, pl)
		routes[pl] = []graph.LinkID{up, down}
	}
	eng := NewEngine()
	return eng, NewNetwork(eng, g, Config{}), routes
}

// fakeClockRun drives 40 timer-paced bursts of packets over a two-plane,
// two-host network with the recorder on a fake clock. The clock stands
// still except that the closing read of each timed event advances it by
// that event's kind's cost; the kind comes from a fingerprinter at a
// cadence of one event, whose checkpoints see every event just before the
// recorder does. It returns the recorder, the number of clock reads, and
// the checkpoints' own per-bin event counts: what a recorder that looked
// at every event would hold.
func fakeClockRun(t *testing.T, cost [numEventKinds]int64) (*FlightRecorder, int, map[[2]int32]int64) {
	t.Helper()
	eng, net, routes := twoPlanePair()

	var last EventKind
	seen := map[[2]int32]int64{}
	eng.Fingerprint = NewFingerprinter(1)
	eng.Fingerprint.OnCheckpoint = func(cp FingerprintCheckpoint) {
		last = cp.Kind
		seen[[2]int32{int32(cp.Kind), cp.Plane}]++
	}
	rec := NewFlightRecorder()
	eng.Recorder = rec

	var now int64
	reads := 0
	real := nanotime
	nanotime = func() int64 {
		reads++
		if reads%2 == 0 {
			now += cost[last]
		}
		return now
	}
	t.Cleanup(func() { nanotime = real })

	s := &releaseSink{net: net}
	for burst := 0; burst < 40; burst++ {
		eng.At(Time(burst)*100*Microsecond, func() {
			for i := 0; i < 50; i++ {
				p := net.NewPacket()
				p.Size = 1500
				p.Route = routes[i%3%2] // two thirds on plane 0
				p.Deliver = s
				net.Send(p)
			}
		})
	}
	eng.Run()
	return rec, reads, seen
}

// TestFlightRecorderEstimate checks the sampled profile against a clock
// that charges every event of a kind the same: the scaled-up wall time
// of each bin is then exactly events × cost, and the counts are those of
// looking at every event.
func TestFlightRecorderEstimate(t *testing.T) {
	cost := [numEventKinds]int64{EvHop: 7, EvDeliver: 11, EvTx: 3, EvTimer: 1000}
	rec, _, seen := fakeClockRun(t, cost)
	snap := rec.Snapshot()
	if len(snap) != len(seen) || len(snap) != 7 {
		t.Fatalf("%d bins in the snapshot, %d in the checkpoints, want 7 (3 packet kinds × 2 planes + timer)", len(snap), len(seen))
	}
	for _, b := range snap {
		if want := seen[[2]int32{int32(b.Kind), b.Plane}]; b.Events != want {
			t.Errorf("%v plane %d: %d events, the checkpoints saw %d", b.Kind, b.Plane, b.Events, want)
		}
		if b.Kind != EvTimer && b.Events < 4*timedStride {
			t.Errorf("%v plane %d: %d events is too few to exercise a stride of %d", b.Kind, b.Plane, b.Events, timedStride)
		}
		if want := b.Events * cost[b.Kind]; b.WallNs != want {
			t.Errorf("%v plane %d: wall %d ns, want %d events × %d ns = %d", b.Kind, b.Plane, b.WallNs, b.Events, cost[b.Kind], want)
		}
	}
}

// TestFlightRecorderClockReadBudget pins what an attached recorder may
// cost: two clock reads for one packet event in timedStride per bin and
// for every timer, none for the rest. Timing every event reads the clock
// 2 × events times and fails this by a factor of about timedStride.
func TestFlightRecorderClockReadBudget(t *testing.T) {
	rec, reads, _ := fakeClockRun(t, [numEventKinds]int64{})
	var packet, timer, bins int64
	for _, b := range rec.Snapshot() {
		bins++
		if b.Kind == EvTimer {
			timer += b.Events
		} else {
			packet += b.Events
		}
	}
	// Each bin times its first event, hence the constant.
	budget := 2*(packet/timedStride+timer) + 2*bins
	if int64(reads) > budget {
		t.Errorf("%d clock reads for %d packet and %d timer events, budget %d", reads, packet, timer, budget)
	}
	if reads < int(2*timer) {
		t.Errorf("%d clock reads cannot have timed all %d timer events", reads, timer)
	}
}
