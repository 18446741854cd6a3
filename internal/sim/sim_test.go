package sim

import (
	"runtime"
	"testing"
	"time"

	"pnet/internal/graph"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(30, func() { order = append(order, 3) })
	e.At(10, func() { order = append(order, 1) })
	e.At(20, func() { order = append(order, 2) })
	e.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
	if e.Now() != 30 {
		t.Errorf("now = %v", e.Now())
	}
}

func TestEngineSameInstantFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(10, func() { order = append(order, 1) })
	e.At(10, func() { order = append(order, 2) })
	e.Run()
	if order[0] != 1 || order[1] != 2 {
		t.Errorf("same-instant order = %v", order)
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.At(10, func() { fired = true })
	if !ev.Pending() {
		t.Error("event not pending after scheduling")
	}
	ev.Cancel()
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestEngineScheduleFromEvent(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.Run()
	if at != 15 {
		t.Errorf("nested event at %v, want 15", at)
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine()
	e.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(5, func() {})
	})
	e.Run()
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 5; i++ {
		e.At(Time(i*10), func() { count++ })
	}
	if fired := e.RunUntil(30); fired != 3 {
		t.Errorf("fired = %d, want 3", fired)
	}
	if count != 3 || e.Now() != 30 {
		t.Errorf("count = %d now = %v", count, e.Now())
	}
	e.Run()
	if count != 5 {
		t.Errorf("final count = %d", count)
	}
}

// armRTO schedules a timer whose closure captures a flow-sized object, as
// a subflow's RTO does, and closes freed when that object is collected.
func armRTO(e *Engine, at Time, freed chan struct{}) *Event {
	flow := new([1 << 10]byte)
	runtime.SetFinalizer(flow, func(*[1 << 10]byte) { close(freed) })
	return e.At(at, func() { flow[0]++ })
}

// TestEngineCancelDropsClosure: a cancelled timer waits in the heap until
// it surfaces, so Cancel must let go of the closure (and the flow it
// captured) at once; cancelling an event that already fired is harmless.
func TestEngineCancelDropsClosure(t *testing.T) {
	e := NewEngine()
	freed := make(chan struct{})
	armRTO(e, 10*Millisecond, freed).Cancel()
	if e.HeapLen() != 1 {
		t.Fatalf("HeapLen = %d, want 1: the cancelled event stays queued", e.HeapLen())
	}
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(10 * time.Second):
		t.Error("closure of a cancelled, still-queued timer was not collected")
	}

	count := 0
	done := e.At(15*Millisecond, func() { count++ })
	e.Run()
	done.Cancel() // after firing: a no-op
	if count != 1 || done.Pending() || e.EventsFired() != 1 {
		t.Errorf("count = %d, pending = %v, fired = %d after cancel-after-fire", count, done.Pending(), e.EventsFired())
	}
}

// TestEngineCounters: HeapLen counts pending events over the lanes and the
// heap (cancelled timers included until they surface), and every scheduled
// event is either fired or discarded as cancelled.
func TestEngineCounters(t *testing.T) {
	e := NewEngine()
	fired := 0
	count := func(int) { fired++ }
	for i := 1; i <= maxLanes; i++ {
		e.scheduleAfter(Time(10*i), &probe{i, count}) // one lane each
	}
	e.scheduleAfter(10, &probe{0, count}) // a keyed delay: its lane
	e.scheduleAfter(5, &probe{0, count})  // a ninth delay, table full: heap
	e.At(12, func() { fired++ })          // heap
	e.At(7, func() { fired++ }).Cancel()  // heap, cancelled
	if e.nlanes != maxLanes || len(e.heap) != 3 {
		t.Fatalf("lanes keyed/heap = %d/%d, want %d/3", e.nlanes, len(e.heap), maxLanes)
	}
	if got := e.HeapLen(); got != maxLanes+1+3 {
		t.Errorf("HeapLen = %d, want %d in the lanes + 3 on the heap", got, maxLanes+1)
	}
	e.Run()
	const cancelled = 1
	if fired != maxLanes+3 || e.EventsFired() != maxLanes+3 {
		t.Errorf("fired %d callbacks, EventsFired = %d, want %d", fired, e.EventsFired(), maxLanes+3)
	}
	if e.seq != e.EventsFired()+cancelled {
		t.Errorf("%d events scheduled, want EventsFired %d + %d cancelled",
			e.seq, e.EventsFired(), cancelled)
	}
	if e.HeapLen() != 0 {
		t.Errorf("HeapLen = %d after Run, want 0", e.HeapLen())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{120 * Nanosecond, "120ns"},
		{3 * Microsecond, "3.000us"},
		{10 * Millisecond, "10.000ms"},
		{2 * Second, "2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("%d -> %q, want %q", int64(c.t), got, c.want)
		}
	}
}

// sink records delivered packets.
type sink struct {
	times []Time
	pkts  []*Packet
	eng   *Engine
}

func (s *sink) HandlePacket(p *Packet) {
	s.times = append(s.times, s.eng.Now())
	s.pkts = append(s.pkts, p)
}

// hostPair is a two-host, one-switch network: 0 -sw(2)- 1.
func hostPair(speed float64, cfg Config) (*Engine, *Network, []graph.LinkID, []graph.LinkID) {
	g := graph.New(3)
	g.SetTransit(0, false)
	g.SetTransit(1, false)
	up0, _ := g.AddDuplex(0, 2, speed, 0)
	up1, down1 := g.AddDuplex(1, 2, speed, 0)
	_ = up1
	eng := NewEngine()
	net := NewNetwork(eng, g, cfg)
	fwd := []graph.LinkID{up0, down1}
	p2, _ := graph.ShortestPath(g, 1, 0)
	return eng, net, fwd, p2.Links
}

func TestSerializationAndPropagation(t *testing.T) {
	// 1500 B at 100 Gb/s = 120 ns per hop serialization; 500 ns prop.
	// Two hops: depart host at 120, arrive switch 620, depart 740,
	// arrive host 1240 ns.
	eng, net, fwd, _ := hostPair(100, Config{PropDelay: 500 * Nanosecond})
	s := &sink{eng: eng}
	p := net.NewPacket()
	p.Size = 1500
	p.Route = fwd
	p.Deliver = s
	net.Send(p)
	eng.Run()
	if len(s.times) != 1 {
		t.Fatalf("delivered %d packets", len(s.times))
	}
	want := 2 * (120 + 500) * Nanosecond
	if s.times[0] != want {
		t.Errorf("delivery at %v, want %v", s.times[0], want)
	}
}

func TestSerializationAt400G(t *testing.T) {
	eng, net, fwd, _ := hostPair(400, Config{PropDelay: Nanosecond})
	s := &sink{eng: eng}
	p := net.NewPacket()
	p.Size = 1500
	p.Route = fwd
	p.Deliver = s
	net.Send(p)
	eng.Run()
	want := 2 * (30*Nanosecond + Nanosecond) // 30 ns serialization per hop
	if s.times[0] != want {
		t.Errorf("delivery at %v, want %v", s.times[0], want)
	}
}

func TestBackToBackQueueing(t *testing.T) {
	// Second packet waits for the first's serialization at each hop but
	// pipelines across hops: deliveries 120 ns apart.
	eng, net, fwd, _ := hostPair(100, Config{})
	s := &sink{eng: eng}
	for i := 0; i < 2; i++ {
		p := net.NewPacket()
		p.Size = 1500
		p.Route = fwd
		p.Deliver = s
		net.Send(p)
	}
	eng.Run()
	if len(s.times) != 2 {
		t.Fatalf("delivered %d", len(s.times))
	}
	if gap := s.times[1] - s.times[0]; gap != 120*Nanosecond {
		t.Errorf("inter-delivery gap = %v, want 120ns", gap)
	}
}

func TestDropTail(t *testing.T) {
	// Queue capacity of 2 packets: sending 5 at once drops 3 at the
	// first hop (two buffered, three dropped — the first is buffered and
	// in transmission).
	eng, net, fwd, _ := hostPair(100, Config{QueueBytes: 3000})
	s := &sink{eng: eng}
	for i := 0; i < 5; i++ {
		p := net.NewPacket()
		p.Size = 1500
		p.Route = fwd
		p.Deliver = s
		net.Send(p)
	}
	eng.Run()
	if len(s.times) != 2 {
		t.Errorf("delivered %d, want 2", len(s.times))
	}
	if net.TotalDrops() != 3 {
		t.Errorf("drops = %d, want 3", net.TotalDrops())
	}
	if net.Drops[fwd[0]] != 3 {
		t.Errorf("drops on first link = %d", net.Drops[fwd[0]])
	}
}

func TestQueueDrainsAndReuses(t *testing.T) {
	eng, net, fwd, _ := hostPair(100, Config{PropDelay: 500 * Nanosecond})
	s := &sink{eng: eng}
	send := func() {
		p := net.NewPacket()
		p.Size = 1500
		p.Route = fwd
		p.Deliver = s
		net.Send(p)
	}
	send()
	eng.Run()
	if net.QueueDepth(fwd[0]) != 0 {
		t.Errorf("queue not drained: %d bytes", net.QueueDepth(fwd[0]))
	}
	// Send again after idle: link restarts cleanly.
	first := s.times[0]
	send()
	eng.Run()
	if len(s.times) != 2 {
		t.Fatalf("second packet not delivered")
	}
	if s.times[1]-first != 620*2*Nanosecond {
		t.Errorf("second delivery delta = %v", s.times[1]-first)
	}
}

func TestPacketFreelist(t *testing.T) {
	eng, net, fwd, _ := hostPair(100, Config{})
	_ = eng
	a := net.NewPacket()
	a.Seq = 42
	net.Release(a)
	b := net.NewPacket()
	if b.Seq != 0 {
		t.Error("recycled packet not zeroed")
	}
	if b != a {
		t.Error("freelist did not reuse the released packet")
	}
	_ = fwd
}

func TestBidirectionalIndependence(t *testing.T) {
	// Opposite directions must not share a queue.
	eng, net, fwd, rev := hostPair(100, Config{PropDelay: 500 * Nanosecond})
	s1 := &sink{eng: eng}
	s2 := &sink{eng: eng}
	p1 := net.NewPacket()
	p1.Size = 1500
	p1.Route = fwd
	p1.Deliver = s1
	p2 := net.NewPacket()
	p2.Size = 1500
	p2.Route = rev
	p2.Deliver = s2
	net.Send(p1)
	net.Send(p2)
	eng.Run()
	want := 1240 * Nanosecond
	if s1.times[0] != want || s2.times[0] != want {
		t.Errorf("deliveries %v %v, want both %v", s1.times[0], s2.times[0], want)
	}
}
