package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
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

// probe is a pooled actor event for the property test below.
type probe struct {
	id   int
	fire func(id int)
}

func (p *probe) act() { p.fire(p.id) }

// TestHeapInterleavedPushPop: schedule from within events (the
// simulator's real access pattern) through every door — At, After,
// schedule and scheduleFIFO, the last with timestamps that also go
// backwards, so both the lane and its fallback are taken — with cancels,
// same-instant ties across the three sources, and Step interleaved with
// RunUntil on and between timestamps. Whatever holds an event, the fired
// sequence must be the (at, seq) sort of the events never cancelled.
func TestHeapInterleavedPushPop(t *testing.T) {
	type rec struct {
		at               Time
		ev               *Event // nil for pooled events
		cancelled, fired bool
	}
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := NewEngine()
		var recs []*rec // index = scheduling order = seq order
		var fired []int
		budget := 3000
		lane, fallback := 0, 0

		var onFire func(id int)
		add := func() {
			// Mostly multiples of 10, so ties are common.
			at := e.Now() + Time(rng.Intn(40))
			if r := at - at%10; r >= e.Now() {
				at = r
			}
			id := len(recs)
			r := &rec{at: at}
			recs = append(recs, r)
			switch rng.Intn(4) {
			case 0:
				r.ev = e.At(at, func() { onFire(id) })
			case 1:
				r.ev = e.After(at-e.Now(), func() { onFire(id) })
			case 2:
				e.schedule(at, &probe{id, onFire})
			case 3:
				before, tail := e.lane.n, e.lane.tail
				sorted := before == 0 || at >= tail
				e.scheduleFIFO(at, &probe{id, onFire})
				if (e.lane.n == before+1) != sorted {
					t.Fatalf("seed %d: scheduleFIFO(%v) with lane tail %v: lane %d → %d", seed, at, tail, before, e.lane.n)
				}
				if sorted {
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

// TestPooledEventsRecycled: actor events must reuse Event structs rather
// than grow the pool indefinitely.
func TestPooledEventsRecycled(t *testing.T) {
	eng, net, fwd, _ := hostPair(100, Config{})
	s := &sink{eng: eng}
	// Send sequentially: each packet's events finish before the next is
	// injected, so the pool should stay tiny.
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
	// Count pool length.
	n := 0
	for ev := eng.free; ev != nil; ev = ev.next {
		n++
	}
	if n > 16 {
		t.Errorf("event pool grew to %d for sequential traffic", n)
	}
}

func TestCancelledPooledInteraction(t *testing.T) {
	// Cancel public events interleaved with pooled ones; both must
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
