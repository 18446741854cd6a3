package sim

import (
	"cmp"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"pnet/internal/graph"
)

// TestHeapFiresInOrder: whatever order events are scheduled in, they must
// fire in non-decreasing time, with FIFO order at equal times.
func TestHeapFiresInOrder(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		n := 200 + rng.Intn(200)
		var fired []Time
		for i := 0; i < n; i++ {
			at := Time(rng.Intn(50)) // many collisions
			e.At(at, func() { fired = append(fired, e.Now()) })
		}
		e.Run()
		if len(fired) != n {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// probe is an actor event for the property test below.
type probe struct {
	id   int
	fire func(id int)
}

func (p *probe) act() { p.fire(p.id) }

// TestHeapInterleavedPushPop: schedule from within events (the
// simulator's real access pattern) through every door — At, After and
// scheduleAfter, the last with more distinct delays than there are lanes,
// so both the lanes and the heap fallback are taken — with cancels,
// same-instant ties across all the sources, and Step interleaved with
// RunUntil on and between timestamps, scheduling again from the clock
// RunUntil jumped to. Whatever holds an event, the fired sequence must be
// the (at, seq) sort of the events never cancelled.
func TestHeapInterleavedPushPop(t *testing.T) {
	type rec struct {
		at               Time
		ev               *Event // nil for actor events
		cancelled, fired bool
	}
	// Multiples of 10 first, so ties between sources are common.
	delays := []Time{0, 10, 20, 30, 40, 3, 17, 25, 31, 38, 12, 5}
	if len(delays) <= maxLanes {
		t.Fatalf("%d delays cannot overflow %d lanes", len(delays), maxLanes)
	}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var recs []*rec // index = scheduling order = seq order
		var fired []int
		budget := 3000
		keyed := map[Time]bool{} // delays that claimed a lane
		lane, fallback := 0, 0

		var onFire func(id int)
		add := func() {
			d := delays[rng.Intn(len(delays))]
			id := len(recs)
			r := &rec{at: e.Now() + d}
			recs = append(recs, r)
			switch rng.Intn(4) {
			case 0:
				r.ev = e.At(r.at, func() { onFire(id) })
			case 1:
				r.ev = e.After(d, func() { onFire(id) })
			default:
				if !keyed[d] && len(keyed) < maxLanes {
					keyed[d] = true
				}
				before := len(e.heap)
				e.scheduleAfter(d, &probe{id, onFire})
				if onHeap := len(e.heap) == before+1; onHeap == keyed[d] {
					t.Fatalf("seed %d: scheduleAfter(%v) with %d lanes keyed: on the heap = %v", seed, d, len(keyed), onHeap)
				}
				if keyed[d] {
					lane++
				} else {
					fallback++
				}
			}
			if r.ev != nil && !r.ev.Pending() {
				t.Fatalf("seed %d: event %d not pending after scheduling", seed, id)
			}
		}
		cancel := func() {
			r := recs[rng.Intn(len(recs))]
			if r.ev == nil || r.fired || r.cancelled {
				return
			}
			if !r.ev.Pending() {
				t.Fatalf("seed %d: unfired event at %v not pending", seed, r.at)
			}
			r.ev.Cancel()
			r.cancelled = true
			if r.ev.Pending() {
				t.Fatalf("seed %d: cancelled event still pending", seed)
			}
		}
		onFire = func(id int) {
			r := recs[id]
			if e.Now() != r.at {
				t.Fatalf("seed %d: event %d for %v fired at %v", seed, id, r.at, e.Now())
			}
			if r.ev != nil && r.ev.Pending() {
				t.Fatalf("seed %d: event %d pending while firing", seed, id)
			}
			r.fired = true
			fired = append(fired, id)
			for n := rng.Intn(3); n > 0 && budget > 0; n-- {
				budget--
				add()
			}
			if rng.Intn(4) == 0 {
				cancel()
			}
		}

		for i := 0; i < 50; i++ {
			add()
		}
		for {
			if rng.Intn(3) > 0 {
				if !e.Step() {
					break
				}
				continue
			}
			until := e.Now() + Time(rng.Intn(25))
			before := len(fired)
			if n := e.RunUntil(until); n != len(fired)-before {
				t.Fatalf("seed %d: RunUntil returned %d, fired %d", seed, n, len(fired)-before)
			}
			if e.Now() != until {
				t.Fatalf("seed %d: RunUntil(%v) left the clock at %v", seed, until, e.Now())
			}
			for id, r := range recs {
				if !r.cancelled && r.fired != (r.at <= until) {
					t.Fatalf("seed %d: after RunUntil(%v), event %d at %v fired=%v", seed, until, id, r.at, r.fired)
				}
			}
			if budget > 0 && e.HeapLen() > 0 {
				budget--
				add() // from the clock RunUntil left, between events
			}
		}

		var want []int
		for id, r := range recs {
			if !r.cancelled {
				want = append(want, id)
			}
			if r.ev.Pending() {
				t.Errorf("seed %d: event %d pending after the run", seed, id)
			}
		}
		sort.SliceStable(want, func(i, j int) bool { return recs[want[i]].at < recs[want[j]].at })
		if len(fired) != len(want) {
			t.Fatalf("seed %d: fired %d events, want %d", seed, len(fired), len(want))
		}
		for i := range want {
			if fired[i] != want[i] {
				t.Fatalf("seed %d: fired[%d] = event %d (at %v), want event %d (at %v)",
					seed, i, fired[i], recs[fired[i]].at, want[i], recs[want[i]].at)
			}
		}
		if e.EventsFired() != uint64(len(fired)) {
			t.Errorf("seed %d: EventsFired = %d, fired %d", seed, e.EventsFired(), len(fired))
		}
		if e.HeapLen() != 0 {
			t.Errorf("seed %d: HeapLen = %d after the run", seed, e.HeapLen())
		}
		if lane == 0 || fallback == 0 {
			t.Errorf("seed %d: %d lane pushes, %d fallbacks: one path was never taken", seed, lane, fallback)
		}
	}
}

// TestLaneRingsReused: actor events must reuse their lane's ring slots
// rather than grow the rings indefinitely.
func TestLaneRingsReused(t *testing.T) {
	eng, net, fwd, _ := hostPair(100, Config{})
	s := &sink{eng: eng}
	// Send sequentially: each packet's events finish before the next is
	// injected, so every ring should stay at its first size.
	var send func(i int)
	send = func(i int) {
		if i == 0 {
			return
		}
		p := net.NewPacket()
		p.Size = 1500
		p.Route = fwd
		p.Deliver = s
		net.Send(p)
		eng.After(10*Microsecond, func() { send(i - 1) })
	}
	send(100)
	eng.Run()
	if len(s.times) != 100 {
		t.Fatalf("delivered %d", len(s.times))
	}
	if eng.nlanes != 2 {
		t.Errorf("%d lanes for one packet size on one link speed, want 2 (tx, prop)", eng.nlanes)
	}
	for i := range eng.lanes[:eng.nlanes] {
		if l := &eng.lanes[i]; len(l.buf) > 64 {
			t.Errorf("lane %v grew to %d slots for sequential traffic", l.delay, len(l.buf))
		}
	}
}

// packetStep is one packet event as a journalTracer saw it.
type packetStep struct {
	at   Time
	ev   TraceEvent
	seq  int64
	link graph.LinkID
}

// journalTracer logs every packet event in the order the engine produced
// it.
type journalTracer struct {
	eng *Engine
	log []packetStep
}

func (j *journalTracer) PacketEvent(ev TraceEvent, p *Packet, link graph.LinkID) {
	j.log = append(j.log, packetStep{j.eng.Now(), ev, p.Seq, link})
}

// mixedRatePackets is how many packets one mixedRateRun sends.
const mixedRatePackets = 3000

// mixedRateRun drives random two-size traffic through a star of six hosts
// whose links run at six speeds — thirteen delay classes for eight lanes —
// into queues small enough to drop. heapOnly takes every lane away first,
// which makes the engine the single heap the lanes must be
// indistinguishable from.
func mixedRateRun(t *testing.T, seed int64, heapOnly bool) (journal []packetStep, delivered, dropped int64) {
	speeds := []float64{10, 25, 40, 50, 100, 200}
	hub := graph.NodeID(len(speeds))
	g := graph.New(len(speeds) + 1)
	up := make([]graph.LinkID, len(speeds))
	down := make([]graph.LinkID, len(speeds))
	for h, speed := range speeds {
		g.SetTransit(graph.NodeID(h), false)
		up[h], down[h] = g.AddDuplex(graph.NodeID(h), hub, 100, 0)
		g.SetCapacity(up[h], speed)
		g.SetCapacity(down[h], speed)
	}
	eng := NewEngine()
	if heapOnly {
		for i := range eng.lanes {
			eng.lanes[i].delay = -1 // no delay matches: the table is full of nothing
		}
		eng.nlanes = maxLanes
	}
	net := NewNetwork(eng, g, Config{QueueBytes: 6000})
	tr := &journalTracer{eng: eng}
	net.Tracer = tr
	s := &sink{eng: eng}

	classes := map[Time]bool{net.queues[0].prop: true}
	sizes := []int32{1500, 64}
	for i := range net.queues {
		for _, size := range sizes {
			classes[net.queues[i].txTime(size)] = true
		}
	}
	if len(classes) <= maxLanes {
		t.Fatalf("%d delay classes do not overflow %d lanes", len(classes), maxLanes)
	}

	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < mixedRatePackets; i++ {
		src, dst := rng.Intn(len(speeds)), rng.Intn(len(speeds)-1)
		if dst >= src {
			dst++
		}
		p := net.NewPacket()
		p.Size = sizes[rng.Intn(len(sizes))]
		p.Route = []graph.LinkID{up[src], down[dst]}
		p.Deliver = s
		p.Seq = int64(i)
		eng.At(Time(rng.Intn(400))*Microsecond/2, func() { net.Send(p) })
	}
	eng.Run()
	if eng.HeapLen() != 0 {
		t.Errorf("seed %d: HeapLen = %d after Run", seed, eng.HeapLen())
	}
	if !heapOnly && eng.nlanes != maxLanes {
		t.Errorf("seed %d: %d of %d lanes keyed by %d delay classes", seed, eng.nlanes, maxLanes, len(classes))
	}
	return tr.log, int64(len(s.pkts)), net.TotalDrops()
}

// TestMixedRateOrderAndConservation: on a network with more delay classes
// than lanes, where part of the packet path falls back to the heap, events
// still fire in the one (at, seq) order — the packet journal equals a
// single heap's, step for step — and every packet sent is delivered or
// dropped.
func TestMixedRateOrderAndConservation(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		got, delivered, dropped := mixedRateRun(t, seed, false)
		want, _, _ := mixedRateRun(t, seed, true)
		if !slices.Equal(got, want) {
			t.Errorf("seed %d: packet journal differs from the single-heap engine's (%d vs %d steps)", seed, len(got), len(want))
		}
		if !slices.IsSortedFunc(got, func(a, b packetStep) int { return cmp.Compare(a.at, b.at) }) {
			t.Errorf("seed %d: simulated time went backwards in the packet journal", seed)
		}
		if dropped == 0 || delivered == 0 {
			t.Errorf("seed %d: delivered %d, dropped %d: the test needs both", seed, delivered, dropped)
		}
		if mixedRatePackets != delivered+dropped {
			t.Errorf("seed %d: sent %d != delivered %d + dropped %d", seed, mixedRatePackets, delivered, dropped)
		}
	}
}

func TestCancelledPooledInteraction(t *testing.T) {
	// Cancel public events interleaved with actor events; both must
	// behave.
	eng, net, fwd, _ := hostPair(100, Config{})
	s := &sink{eng: eng}
	p := net.NewPacket()
	p.Size = 1500
	p.Route = fwd
	p.Deliver = s
	cancelled := false
	ev := eng.At(50*Nanosecond, func() { cancelled = true })
	ev.Cancel()
	net.Send(p)
	eng.Run()
	if cancelled {
		t.Error("cancelled event fired")
	}
	if len(s.times) != 1 {
		t.Error("packet lost")
	}
}
