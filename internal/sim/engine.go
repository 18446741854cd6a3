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
// directly, so the engine can hold their events by value.
type actor interface {
	act()
}

// Event is a scheduled callback. Cancel prevents a pending event from
// firing; cancelling an already-fired event is a no-op.
type Event struct {
	at       Time
	seq      uint64
	fn       func()
	who      actor // set instead of fn on an actor event the lanes turned away
	canceled bool
	popped   bool // left the event queue (fired, or discarded as cancelled)
}

// Cancel prevents the event from firing. It drops the callback at once: a
// cancelled event stays queued until it surfaces, and must not keep what
// its closure captured (a finished flow, its paths) alive until then.
func (e *Event) Cancel() {
	e.canceled = true
	e.fn = nil
}

// Pending reports whether the event is still scheduled.
func (e *Event) Pending() bool { return e != nil && !e.canceled && !e.popped }

// maxLanes bounds the delay-lane table. Every network in the repo has
// three delay classes (propagation, tx of an MTU, tx of a 64 B ACK or
// trimmed header); a mixed-rate graph with more classes than lanes only
// sends the overflow to the heap.
const maxLanes = 8

// Engine is a single-threaded discrete-event scheduler. Events scheduled
// for the same instant fire in scheduling order.
//
// The event queue is the delay lanes and one heap merged by one key,
// (at, seq): every event takes its seq when it is scheduled, whichever
// source holds it, so the firing order is the order a single heap would
// give (DESIGN.md "Event queue").
type Engine struct {
	now   Time
	seq   uint64
	fired uint64
	// lanes holds actor events, one FIFO per distinct delay. The clock
	// never goes back, so events scheduled at now+d for one constant d are
	// born sorted by (at, seq): link arrivals and tx-completes, all the
	// packet path schedules, queue here and never touch the heap.
	lanes  [maxLanes]eventRing
	nlanes int
	// heap holds everything at arbitrary times: fn (At/After) events —
	// RTO and rtx wakeups, sampler, chaos and health ticks, most of them
	// cancelled long before they are due — and the actor events the lanes
	// turned away. It costs the packet path one compare per pop.
	heap eventHeap

	// Recorder, when set, counts every dispatched event by (kind, plane)
	// and times a fixed share of them — the event-loop flight recorder
	// behind `pnetstat profile`. Nil costs one branch per event.
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

// HeapLen reports the number of pending (possibly cancelled) events over
// the heap and the lanes. Telemetry samples it as the engine's working-set
// size; a periodic sampler also uses it to detect that it is the only
// remaining work and stop rescheduling itself.
func (e *Engine) HeapLen() int {
	n := len(e.heap)
	for i := range e.lanes[:e.nlanes] {
		n += e.lanes[i].n
	}
	return n
}

// At schedules fn at absolute time t (not before the current time) and
// returns a cancellable handle.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling in the past: %v < %v", t, e.now))
	}
	e.seq++
	ev := &Event{at: t, seq: e.seq, fn: fn}
	e.heap.push(ev)
	return ev
}

// After schedules fn d after the current time.
func (e *Engine) After(d Time, fn func()) *Event { return e.At(e.now+d, fn) }

// scheduleAfter is the one door for actor events: who acts d after the
// current time. The event queues on the lane keyed by exactly d, claiming
// a free one the first time d is seen; the clock never goes back, so a
// lane's timestamps never do either. With the table full the event goes to
// the heap instead.
//
// Actor events have no external handle and cannot be cancelled; a lane
// holds them by value, so the hot path of the simulator allocates nothing.
func (e *Engine) scheduleAfter(d Time, who actor) {
	if d < 0 {
		panic(fmt.Sprintf("sim: scheduling in the past: delay %d ps", int64(d)))
	}
	e.seq++
	at := e.now + d
	if l := e.laneFor(d); l != nil {
		l.push(laneEvent{at, e.seq, who})
		return
	}
	e.heap.push(&Event{at: at, seq: e.seq, who: who})
}

// laneFor returns the lane keyed by delay d, or nil when all are taken by
// other delays.
func (e *Engine) laneFor(d Time) *eventRing {
	for i := range e.lanes[:e.nlanes] {
		if e.lanes[i].delay == d {
			return &e.lanes[i]
		}
	}
	if e.nlanes == maxLanes {
		return nil
	}
	l := &e.lanes[e.nlanes]
	e.nlanes++
	l.delay = d
	return l
}

// fire dispatches an event taken off the queue.
func (e *Engine) fire(at Time, who actor, fn func()) {
	if e.Recorder != nil || e.Fingerprint != nil {
		e.fireInstrumented(at, who, fn)
		return
	}
	e.now = at
	e.fired++
	if who != nil {
		who.act()
		return
	}
	fn()
}

// step fires the earliest live event if its timestamp is at most limit and
// reports whether it did: the earliest lane head, unless the heap's top is
// earlier still, which on the packet path it almost never is. A cancelled
// event is discarded when it surfaces as the earliest event of all
// (whatever the limit), exactly when a single heap would drop it.
func (e *Engine) step(limit Time) bool {
	for {
		var from *eventRing // the lane with the earliest head
		var at Time
		var seq uint64
		for i := range e.lanes[:e.nlanes] {
			if l := &e.lanes[i]; l.n > 0 {
				if h := &l.buf[l.head]; from == nil || earlier(h.at, h.seq, at, seq) {
					from, at, seq = l, h.at, h.seq
				}
			}
		}
		if len(e.heap) > 0 {
			if top := e.heap[0]; from == nil || earlier(top.at, top.seq, at, seq) {
				if top.canceled {
					e.heap.pop()
					continue
				}
				if top.at > limit {
					return false
				}
				e.heap.pop()
				e.fire(top.at, top.who, top.fn)
				return true
			}
		}
		if from == nil || at > limit {
			return false
		}
		e.fire(at, from.pop(), nil)
		return true
	}
}

// Step fires the next event. It returns false when no events remain.
func (e *Engine) Step() bool { return e.step(math.MaxInt64) }

// Run fires events until none remain.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with timestamps up to and including t, then
// advances the clock to t. It returns the number of events fired.
func (e *Engine) RunUntil(t Time) int {
	fired := 0
	for e.step(t) {
		fired++
	}
	if e.now < t {
		e.now = t
	}
	return fired
}

// laneEvent is an actor event as a lane holds it.
type laneEvent struct {
	at  Time
	seq uint64
	who actor
}

// eventRing is one delay lane: a growable FIFO ring of events pushed in
// non-decreasing (at, seq) order. Its length is a power of two; growth
// doubles it, so steady state allocates nothing.
type eventRing struct {
	delay   Time // the lane's key: every entry was scheduled this long ahead
	buf     []laneEvent
	head, n int
}

func (r *eventRing) push(ev laneEvent) {
	if r.n == len(r.buf) {
		grown := make([]laneEvent, max(2*len(r.buf), 64))
		k := copy(grown, r.buf[r.head:])
		copy(grown[k:], r.buf[:r.head])
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = ev
	r.n++
}

func (r *eventRing) pop() actor {
	h := &r.buf[r.head]
	who := h.who
	h.who = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return who
}

// eventHeap is a hand-rolled 4-ary min-heap ordered by (at, seq). A 4-ary
// layout halves the depth of the dominant sift-down path, and avoiding
// container/heap's interface dispatch roughly doubles its throughput. A
// pop costs about four unpredictable compares per level, which is why the
// events that need no sorting ride the delay lanes and only timers, which
// rarely fire, are left in it.
type eventHeap []*Event

// earlier is the engine's one event order: time, then scheduling order.
func earlier(at Time, seq uint64, thanAt Time, thanSeq uint64) bool {
	return at < thanAt || at == thanAt && seq < thanSeq
}

func less(a, b *Event) bool { return earlier(a.at, a.seq, b.at, b.seq) }

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
