package sim

import (
	"math/bits"
	"time"
)

// The event-loop flight recorder says where an engine's wall time goes:
// it bins dispatched events by (kind, plane), which separates in-plane
// packet work (hops, transmissions) from the host boundary (delivers
// into transport code, timers). Counts are exact; wall time is sampled.
// Attach one per engine (Engine.Recorder); a nil recorder costs one
// branch per event. A non-nil one costs every event its classification
// (classify, shared with the fingerprinter, inlined into the dispatch
// below: a few loads of the actor, the results in registers) and one
// counter, and one packet event in timedStride per bin, and every timer,
// two reads of the monotonic clock. Timing every event cost ≈ 120 ns of
// clock around a mean event of ≈ 90 ns (faults experiment, DESIGN.md
// §9.2).

// timedStride is how many of a bin's hop, deliver or tx events share one
// timed one. Packet events of one (kind, plane) run the same few code
// paths millions of times, so one in 64 prices them to a few percent.
// Timer events are all timed: they are rare (one event in 1500 on
// faults, one in 100 on incast) and too unlike each other (a sampler
// tick, an RTO wake, a chaos step) for a sample to stand for the rest.
const timedStride = 64

// nanotime is the recorder's clock, monotonic nanoseconds from an
// arbitrary origin: time.Since of a fixed instant reads the monotonic
// clock alone, where time.Now reads the wall clock as well. It is a
// variable so that tests can count reads and supply a fake.
var (
	clockOrigin = time.Now()
	nanotime    = func() int64 { return int64(time.Since(clockOrigin)) }
)

// EventKind classifies a dispatched event by what it runs.
type EventKind uint8

// Event kinds.
const (
	// EvHop is a packet arriving at an intermediate node — work that
	// stays inside the link's plane.
	EvHop EventKind = iota
	// EvDeliver is a packet arriving at its final node: the event crosses
	// the host boundary (transport code runs).
	EvDeliver
	// EvTx is a queue finishing a transmission — in-plane work.
	EvTx
	// EvTimer is a callback event (RTO wake, sampler tick, chaos script):
	// host-domain work with no plane.
	EvTimer

	numEventKinds
)

var eventKindNames = [numEventKinds]string{"hop", "deliver", "tx", "timer"}

// String names the kind as it appears in profile records.
func (k EventKind) String() string {
	if int(k) < len(eventKindNames) {
		return eventKindNames[k]
	}
	return "unknown"
}

// ParseEventKind resolves a kind name from a profile record.
func ParseEventKind(s string) (EventKind, bool) {
	for i, n := range eventKindNames {
		if n == s {
			return EventKind(i), true
		}
	}
	return 0, false
}

// HostBoundary reports whether events of this kind execute host-side
// code (transports, timers) rather than in-plane queue work.
func (k EventKind) HostBoundary() bool { return k == EvDeliver || k == EvTimer }

// ProfileBin is one (kind, plane) cell of a recorder snapshot. Plane is
// -1 for timer events (no plane) and the link's plane otherwise. Events
// is exact and deterministic for a fixed seed; WallNs is neither: it is
// the wall time of the bin's timed events scaled up to all of them.
type ProfileBin struct {
	Kind   EventKind
	Plane  int32
	Events int64
	WallNs int64
}

// planeBin counts every event of one (kind, plane) and times some.
type planeBin struct {
	events  int64
	timed   int64 // events whose wall time is in timedNs
	timedNs int64
	skip    int32 // events to pass before the next timed one
}

// wallNs estimates the bin's wall time, timedNs × events / timed, with a
// 128-bit product: an hour-long run's product overflows 64 bits.
func (b *planeBin) wallNs() int64 {
	if b.timed == 0 {
		return 0
	}
	hi, lo := bits.Mul64(uint64(b.timedNs), uint64(b.events))
	q, _ := bits.Div64(hi, lo, uint64(b.timed))
	return int64(q)
}

// FlightRecorder counts every dispatched event by (kind, plane) and
// times a fixed share of them (see timedStride). It belongs to exactly
// one engine (single-threaded, no atomics); snapshots merge across
// engines in internal/report.
type FlightRecorder struct {
	bins [numEventKinds]struct {
		none     planeBin // plane -1
		perPlane []planeBin
	}
}

// NewFlightRecorder returns an empty recorder.
func NewFlightRecorder() *FlightRecorder { return &FlightRecorder{} }

// count adds one event to its bin and returns the bin if this event is
// one to time, nil if not. The pointer is good until the next count.
func (r *FlightRecorder) count(kind EventKind, plane int32) *planeBin {
	k := &r.bins[kind]
	b := &k.none
	if plane >= 0 {
		for int(plane) >= len(k.perPlane) {
			k.perPlane = append(k.perPlane, planeBin{})
		}
		b = &k.perPlane[plane]
	}
	b.events++
	if b.skip > 0 {
		b.skip--
		return nil
	}
	if kind != EvTimer {
		b.skip = timedStride - 1
	}
	return b
}

// Snapshot returns the non-empty bins sorted by (kind, plane).
func (r *FlightRecorder) Snapshot() []ProfileBin {
	var out []ProfileBin
	for k := range r.bins {
		if b := &r.bins[k].none; b.events > 0 {
			out = append(out, ProfileBin{EventKind(k), -1, b.events, b.wallNs()})
		}
		for pl := range r.bins[k].perPlane {
			if b := &r.bins[k].perPlane[pl]; b.events > 0 {
				out = append(out, ProfileBin{EventKind(k), int32(pl), b.events, b.wallNs()})
			}
		}
	}
	return out
}

// fireInstrumented is Engine.fire with classification around the
// dispatch, feeding the flight recorder (a count, and for the events it
// picks, wall timing) and/or the fingerprinter (simulated quantities
// only, no clock reads). It must mirror fire exactly; the classification
// reads the actor before dispatch because acting moves a packet to its
// next hop or back to the freelist.
func (e *Engine) fireInstrumented(at Time, who actor, fn func()) {
	e.now = at
	e.fired++
	kind, plane, link, flow, seq, size := classify(who)
	if e.Fingerprint != nil {
		e.Fingerprint.Fold(at, kind, plane, link, flow, seq, size)
	}
	var bin *planeBin
	if e.Recorder != nil {
		bin = e.Recorder.count(kind, plane)
	}
	if bin == nil {
		if who != nil {
			who.act()
		} else {
			fn()
		}
		return
	}
	start := nanotime()
	if who != nil {
		who.act()
	} else {
		fn()
	}
	bin.timedNs += nanotime() - start
	bin.timed++
}
