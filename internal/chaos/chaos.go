// Package chaos is the runtime fault-injection engine: it turns a
// deterministic, seeded script of fault events — single links, whole
// switches, entire dataplanes, flapping, Poisson MTTF/MTTR processes —
// into timed sim.Network.SetLinkUp calls inside the discrete-event loop.
//
// The injector changes only the dataplane's physical truth. It never
// touches graph.Link.Up, the end hosts' administrative view: hosts must
// notice faults themselves (core.HealthMonitor probes) before their
// path selection reacts, which is what makes detection and failover
// latency measurable quantities instead of zero by construction. This
// is the runtime counterpart of topo.HopCountSweep, which studies the
// post-failure topology statically (§3.4 and Fig. 14 of the paper).
//
// All randomness comes from explicit seeds, and all timing from the
// simulation clock, so a schedule replays identically across runs.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"pnet/internal/graph"
	"pnet/internal/sim"
)

// Kind enumerates fault event kinds. Down kinds inject a fault; Up kinds
// clear one.
type Kind int

// Fault event kinds.
const (
	LinkDown Kind = iota
	LinkUp
	SwitchDown
	SwitchUp
	PlaneDown
	PlaneUp
)

// String names the kind for logs.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case LinkUp:
		return "link-up"
	case SwitchDown:
		return "switch-down"
	case SwitchUp:
		return "switch-up"
	case PlaneDown:
		return "plane-down"
	case PlaneUp:
		return "plane-up"
	}
	return "unknown"
}

// Injecting reports whether the kind injects a fault (as opposed to
// clearing one).
func (k Kind) Injecting() bool {
	return k == LinkDown || k == SwitchDown || k == PlaneDown
}

// Event is one timed fault transition. Exactly one of Link, Node, Plane
// is meaningful, selected by Kind.
type Event struct {
	At   sim.Time
	Kind Kind

	Link  graph.LinkID // LinkDown / LinkUp
	Node  graph.NodeID // SwitchDown / SwitchUp
	Plane int32        // PlaneDown / PlaneUp
}

// Target names the fault's subject, e.g. "link:12", "switch:3",
// "plane:1" — the correlation key between inject, detect, and recover
// records.
func (e Event) Target() string {
	switch e.Kind {
	case LinkDown, LinkUp:
		return fmt.Sprintf("link:%d", e.Link)
	case SwitchDown, SwitchUp:
		return fmt.Sprintf("switch:%d", e.Node)
	default:
		return fmt.Sprintf("plane:%d", e.Plane)
	}
}

// String renders the event for logs.
func (e Event) String() string {
	return fmt.Sprintf("t=%v %s %s", e.At, e.Target(), e.Kind)
}

// Schedule is a fault script: a set of events the injector will apply in
// time order. Build one with the fault constructors below, or assemble
// Events directly.
type Schedule struct {
	Events []Event
}

// Add appends one event.
func (s *Schedule) Add(e Event) { s.Events = append(s.Events, e) }

// sortEvents orders events by time, breaking ties by insertion order
// (sort.SliceStable), so a schedule built deterministically applies
// deterministically.
func (s *Schedule) sortEvents() {
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].At < s.Events[j].At })
}

// LinkFault takes one link down at `at`; dur > 0 brings it back after
// that long, dur == 0 leaves it down for the rest of the run.
func (s *Schedule) LinkFault(link graph.LinkID, at, dur sim.Time) {
	s.Add(Event{At: at, Kind: LinkDown, Link: link})
	if dur > 0 {
		s.Add(Event{At: at + dur, Kind: LinkUp, Link: link})
	}
}

// SwitchCrash takes every link touching a node down at `at` (the node
// stops forwarding entirely); dur > 0 reboots it after that long.
func (s *Schedule) SwitchCrash(node graph.NodeID, at, dur sim.Time) {
	s.Add(Event{At: at, Kind: SwitchDown, Node: node})
	if dur > 0 {
		s.Add(Event{At: at + dur, Kind: SwitchUp, Node: node})
	}
}

// PlaneOutage takes a whole dataplane down at `at` — the paper's
// headline fault scenario (one plane of a P-Net dies, traffic must
// survive on the others); dur > 0 restores it after that long.
func (s *Schedule) PlaneOutage(plane int32, at, dur sim.Time) {
	s.Add(Event{At: at, Kind: PlaneDown, Plane: plane})
	if dur > 0 {
		s.Add(Event{At: at + dur, Kind: PlaneUp, Plane: plane})
	}
}

// Flap makes a link oscillate: starting at `at`, each of `cycles`
// periods spends the first half down and the second half up — the
// pathological case for any health monitor with hysteresis.
func (s *Schedule) Flap(link graph.LinkID, at, period sim.Time, cycles int) {
	if period <= 0 || cycles <= 0 {
		panic(fmt.Sprintf("chaos: flap needs positive period and cycles, got %v x%d", period, cycles))
	}
	for i := 0; i < cycles; i++ {
		t := at + sim.Time(i)*period
		s.LinkFault(link, t, period/2)
	}
}

// Poisson overlays each given link with an alternating renewal process:
// exponential up-times of mean mttf, exponential down-times of mean
// mttr, truncated at `until`. All draws come from the seeded generator,
// so the same arguments always produce the same schedule.
func (s *Schedule) Poisson(seed int64, links []graph.LinkID, mttf, mttr, until sim.Time) {
	if mttf <= 0 || mttr <= 0 {
		panic(fmt.Sprintf("chaos: poisson needs positive mttf/mttr, got %v/%v", mttf, mttr))
	}
	rng := rand.New(rand.NewSource(seed))
	exp := func(mean sim.Time) sim.Time {
		// Inverse-CDF sampling; Float64 is in [0,1), so 1-F is in (0,1].
		// A draw can be tens of means long: saturate instead of wrapping.
		d := math.Round(-math.Log(1-rng.Float64()) * float64(mean))
		if d >= math.MaxInt64 {
			return math.MaxInt64
		}
		return sim.Time(d)
	}
	for _, link := range links {
		t := exp(mttf)
		for t < until {
			down := exp(mttr)
			if down == 0 {
				down = 1 // a zero draw would read as "permanent" to LinkFault
			}
			if down > until-t {
				down = until - t
			}
			s.LinkFault(link, t, down)
			t += down
			up := exp(mttf)
			if up >= until-t {
				break
			}
			t += up
		}
	}
	s.sortEvents()
}
