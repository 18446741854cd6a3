package sim

import "time"

// The event-loop flight recorder says where an engine's wall time goes:
// it bins every dispatched event's count and wall time by (kind, plane),
// which separates in-plane packet work (hops, transmissions) from the
// host boundary (delivers into transport code, timers). Attach one per
// engine (Engine.Recorder); a nil recorder costs one branch per event.

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
// -1 for timer events (no plane) and the link's plane otherwise; event
// counts are deterministic for a fixed seed, wall time is not.
type ProfileBin struct {
	Kind   EventKind
	Plane  int32
	Events int64
	WallNs int64
}

type planeBin struct {
	events int64
	wallNs int64
}

// FlightRecorder bins every dispatched event's count and wall time by
// (kind, plane). It belongs to exactly one engine (single-threaded, no
// atomics); snapshots merge across engines in internal/report.
type FlightRecorder struct {
	bins [numEventKinds]struct {
		none     planeBin // plane -1
		perPlane []planeBin
	}
}

// NewFlightRecorder returns an empty recorder.
func NewFlightRecorder() *FlightRecorder { return &FlightRecorder{} }

func (r *FlightRecorder) record(kind EventKind, plane int32, wallNs int64) {
	b := &r.bins[kind]
	if plane < 0 {
		b.none.events++
		b.none.wallNs += wallNs
		return
	}
	for int(plane) >= len(b.perPlane) {
		b.perPlane = append(b.perPlane, planeBin{})
	}
	b.perPlane[plane].events++
	b.perPlane[plane].wallNs += wallNs
}

// Events returns the total number of recorded events.
func (r *FlightRecorder) Events() int64 {
	var n int64
	for k := range r.bins {
		n += r.bins[k].none.events
		for _, p := range r.bins[k].perPlane {
			n += p.events
		}
	}
	return n
}

// Snapshot returns the non-empty bins sorted by (kind, plane).
func (r *FlightRecorder) Snapshot() []ProfileBin {
	var out []ProfileBin
	for k := range r.bins {
		if b := r.bins[k].none; b.events > 0 {
			out = append(out, ProfileBin{EventKind(k), -1, b.events, b.wallNs})
		}
		for pl, b := range r.bins[k].perPlane {
			if b.events > 0 {
				out = append(out, ProfileBin{EventKind(k), int32(pl), b.events, b.wallNs})
			}
		}
	}
	return out
}

// fireInstrumented is Engine.fire with classification around the
// dispatch, feeding the flight recorder (with wall timing) and/or the
// fingerprinter (simulated quantities only — no clock reads, so a
// fingerprint-only run stays cheap). It must mirror fire exactly; the
// classification reads the actor before dispatch because acting moves a
// packet to its next hop or back to the freelist.
func (e *Engine) fireInstrumented(at Time, who actor, fn func()) {
	e.now = at
	e.fired++
	info := classify(who)
	if e.Fingerprint != nil {
		e.Fingerprint.fold(at, info)
	}
	if e.Recorder == nil {
		if who != nil {
			who.act()
		} else {
			fn()
		}
		return
	}
	start := time.Now()
	if who != nil {
		who.act()
	} else {
		fn()
	}
	e.Recorder.record(info.kind, info.plane, time.Since(start).Nanoseconds())
}
