// Package sim is a discrete-event, source-routed packet-level network
// simulator in the mold of htsim [Handley et al., SIGCOMM 2017], which the
// paper's artifact builds on. It models links with serialization and
// propagation delay, output drop-tail queues, and packets that carry their
// full route (a sequence of directed links) from source to destination —
// the forwarding model of both htsim and a P-Net end host that picks a
// dataplane and path for every packet.
package sim

import (
	"fmt"
	"math"
)

// Time is simulated time in picoseconds. Picosecond resolution keeps
// serialization delays exact at every link speed in the paper's sweeps
// (a 64 B ACK at 400 Gb/s lasts 1.28 ns).
type Time int64

// Common durations.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds converts a Time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t)/int64(Nanosecond))
	}
}

// actor is the allocation-free alternative to a closure callback: hot-path
// simulation objects (queues, packets) implement act and are scheduled
// directly, letting the engine pool their events.
type actor interface {
	act()
}

// Event is a scheduled callback. Cancel prevents a pending event from
// firing; cancelling an already-fired event is a no-op.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	who      actor // pooled internal events use who instead of fn
	canceled bool
	popped   bool   // left the event queue (fired, or discarded as cancelled)
	next     *Event // freelist
}

// Cancel prevents the event from firing.
func (e *Event) Cancel() { e.canceled = true }

// Pending reports whether the event is still scheduled.
func (e *Event) Pending() bool { return e != nil && !e.canceled && !e.popped }

// Engine is a single-threaded discrete-event scheduler. Events scheduled
// for the same instant fire in scheduling order.
//
// The event queue is three sources merged by one key, (at, seq): every
// event takes its seq when it is scheduled, whichever source holds it, so
// the firing order is the order a single heap would give (DESIGN.md
// "Event queue").
type Engine struct {
	now   Time
	seq   uint64
	fired uint64
	// events holds actor events at arbitrary times: queue tx-completes
	// (at most one per busy link) and whatever scheduleFIFO turned away.
	events eventHeap
	// timers holds fn (At/After) events: RTO and rtx wakeups, sampler,
	// chaos and health ticks. Most are cancelled long before they are due;
	// here they cost the packet path one compare per pop, not heap depth.
	timers eventHeap
	// lane holds actor events scheduled in non-decreasing time — link
	// arrivals, half of all events — which are already sorted.
	lane eventRing
	free *Event // pool for internal (actor) events

	// Recorder, when set, profiles every dispatched event (kind, plane,
	// wall time) — the event-loop flight recorder behind `pnetstat
	// profile`. Nil costs one branch per event.
	Recorder *FlightRecorder

	// Fingerprint, when set, folds every dispatched event into a rolling
	// determinism hash chain (see fingerprint.go). Nil costs one branch
	// per event, same as Recorder.
	Fingerprint *Fingerprinter
}

// NewEngine returns an engine at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// EventsFired returns the number of events dispatched so far — the
// engine's work counter, sampled by telemetry to report event rates.
func (e *Engine) EventsFired() uint64 { return e.fired }

// EventsScheduled returns the number of events ever scheduled.
func (e *Engine) EventsScheduled() uint64 { return e.seq }

// HeapLen reports the number of pending (possibly cancelled) events over
// the heap, the timer heap and the lane. Telemetry samples it as the
// engine's working-set size; a periodic sampler also uses it to detect
// that it is the only remaining work and stop rescheduling itself.
func (e *Engine) HeapLen() int { return len(e.events) + len(e.timers) + e.lane.n }

// At schedules fn at absolute time t (not before the current time) and
// returns a cancellable handle.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling in the past: %v < %v", t, e.now))
	}
	e.seq++
	ev := &Event{at: t, seq: e.seq, fn: fn}
	e.timers.push(ev)
	return ev
}

// After schedules fn d after the current time.
func (e *Engine) After(d Time, fn func()) *Event { return e.At(e.now+d, fn) }

// pooled takes an internal actor event from the pool. Pooled events have
// no external handle, so they cannot be cancelled and are recycled the
// moment they fire — the hot path of the simulator allocates nothing.
func (e *Engine) pooled(at Time, who actor) *Event {
	ev := e.free
	if ev != nil {
		e.free = ev.next
		ev.next = nil
	} else {
		ev = &Event{}
	}
	ev.at = at
	ev.who = who
	ev.fn = nil
	ev.canceled = false
	ev.popped = false
	return ev
}

// schedule enqueues a pooled actor event at an arbitrary time.
func (e *Engine) schedule(at Time, who actor) {
	ev := e.pooled(at, who)
	e.seq++
	ev.seq = e.seq
	e.events.push(ev)
}

// scheduleFIFO is schedule for a caller whose timestamps arrive in
// non-decreasing order (queue.act: now plus the network's one propagation
// delay). Such events are already sorted by (at, seq), so they queue on
// the lane and never touch a heap. A timestamp below the lane's tail goes
// to the heap instead, which keeps the lane sorted for any delays.
func (e *Engine) scheduleFIFO(at Time, who actor) {
	if e.lane.n > 0 && at < e.lane.tail {
		e.schedule(at, who)
		return
	}
	ev := e.pooled(at, who)
	e.seq++
	ev.seq = e.seq
	e.lane.push(ev)
}

// fire dispatches a popped event, recycling pooled ones.
func (e *Engine) fire(ev *Event) {
	if e.Recorder != nil || e.Fingerprint != nil {
		e.fireInstrumented(ev)
		return
	}
	e.now = ev.at
	e.fired++
	if ev.who != nil {
		who := ev.who
		ev.who = nil
		ev.next = e.free
		e.free = ev
		who.act()
		return
	}
	ev.fn()
}

// pop removes and returns the earliest live event if its timestamp is at
// most limit, nil otherwise. The lane head and the actor heap's top are
// compared first; the timer heap is looked at only when its top is not
// later than that candidate, which on the packet path it almost never is.
// A cancelled timer is discarded when it surfaces as the earliest event
// of all (whatever the limit), exactly when a single heap would drop it.
func (e *Engine) pop(limit Time) *Event {
	for {
		var ev *Event
		var heap *eventHeap // the heap whose top ev is; nil when the lane holds it
		if e.lane.n > 0 {
			ev = e.lane.buf[e.lane.head]
		}
		if len(e.events) > 0 {
			if top := e.events[0]; ev == nil || less(top, ev) {
				ev, heap = top, &e.events
			}
		}
		if len(e.timers) > 0 {
			if top := e.timers[0]; ev == nil || less(top, ev) {
				if top.canceled {
					e.timers.pop()
					continue
				}
				ev, heap = top, &e.timers
			}
		}
		if ev == nil || ev.at > limit {
			return nil
		}
		if heap == nil {
			return e.lane.pop()
		}
		return heap.pop()
	}
}

// Step fires the next event. It returns false when no events remain.
func (e *Engine) Step() bool {
	ev := e.pop(math.MaxInt64)
	if ev == nil {
		return false
	}
	e.fire(ev)
	return true
}

// Run fires events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps up to and including t, then
// advances the clock to t. It returns the number of events fired.
func (e *Engine) RunUntil(t Time) int {
	fired := 0
	for ev := e.pop(t); ev != nil; ev = e.pop(t) {
		e.fire(ev)
		fired++
	}
	if e.now < t {
		e.now = t
	}
	return fired
}

// eventRing is the lane: a growable FIFO ring of events pushed in
// non-decreasing (at, seq) order. Its length is a power of two; growth
// doubles it, so steady state allocates nothing.
type eventRing struct {
	buf     []*Event
	head, n int
	tail    Time // timestamp of the newest entry, meaningful while n > 0
}

func (r *eventRing) push(ev *Event) {
	if r.n == len(r.buf) {
		grown := make([]*Event, max(2*len(r.buf), 64))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = ev
	r.n++
	r.tail = ev.at
}

func (r *eventRing) pop() *Event {
	ev := r.buf[r.head]
	ev.popped = true
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return ev
}

// eventHeap is a hand-rolled 4-ary min-heap ordered by (at, seq). A 4-ary
// layout halves the depth of the dominant sift-down path, and avoiding
// container/heap's interface dispatch roughly doubles its throughput. A
// pop costs about four unpredictable compares per level, which is why the
// events that need no sorting (the lane) or rarely fire (timers) are kept
// out of the heap the packet path pops from.
type eventHeap []*Event

// less is the engine's one event order: time, then scheduling order.
func less(a, b *Event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev *Event) {
	*h = append(*h, ev)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !less(ev, s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
}

func (h *eventHeap) pop() *Event {
	s := *h
	top := s[0]
	top.popped = true
	last := s[len(s)-1]
	s[len(s)-1] = nil
	s = s[:len(s)-1]
	*h = s
	if len(s) == 0 {
		return top
	}
	// Sift the former last element down from the root.
	i := 0
	for {
		child := 4*i + 1
		if child >= len(s) {
			break
		}
		end := child + 4
		if end > len(s) {
			end = len(s)
		}
		best := child
		for c := child + 1; c < end; c++ {
			if less(s[c], s[best]) {
				best = c
			}
		}
		if !less(s[best], last) {
			break
		}
		s[i] = s[best]
		i = best
	}
	s[i] = last
	return top
}
