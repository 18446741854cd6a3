// Package chaos is the runtime fault injector: it turns a schedule of
// dataplane outages into timed sim.Network.SetLinkUp calls inside the
// discrete-event loop. A plane outage is the paper's headline fault
// scenario (one plane of a P-Net dies, traffic must survive on the
// others), and the one the faults experiment and the failover example
// inject.
//
// The injector changes only the dataplane's physical truth. It never
// touches graph.Link.Up, the end hosts' administrative view: hosts must
// notice faults themselves (core.HealthMonitor probes) before their
// path selection reacts, which is what makes detection and failover
// latency measurable quantities instead of zero by construction. This
// is the runtime counterpart of topo.HopCountSweep, which studies the
// post-failure topology statically (§3.4 and Fig. 14 of the paper).
//
// All timing comes from the simulation clock, so a schedule replays
// identically across runs.
package chaos

import (
	"fmt"

	"pnet/internal/graph"
	"pnet/internal/obs"
	"pnet/internal/sim"
)

// Event is one dataplane going down at At and staying down for the rest
// of the run.
type Event struct {
	At    sim.Time
	Plane int32
}

// Target names the fault's subject, "plane:N": the correlation key
// between inject, detect, and recover records.
func (e Event) Target() string { return fmt.Sprintf("plane:%d", e.Plane) }

// Schedule is a fault script: the outages the injector will apply.
type Schedule struct {
	Events []Event
}

// PlaneOutage takes a whole dataplane down at `at`, for good.
func (s *Schedule) PlaneOutage(plane int32, at sim.Time) {
	s.Events = append(s.Events, Event{At: at, Plane: plane})
}

// Injector applies a Schedule to one simulated network: each outage
// takes down every directed link of its plane.
type Injector struct {
	Eng *sim.Engine
	Net *sim.Network

	// Obs, when set, receives an "inject" FaultRecord per event.
	Obs *obs.Collector
	// NetID is the number the collector attached Net under
	// (workload.Driver.NetID), which the records carry.
	NetID int
	// OnEvent, when set, observes each event just after it is applied —
	// the hook experiments use to correlate injection times with
	// detection and recovery.
	OnEvent func(Event)

	sched Schedule
	armed bool
}

// NewInjector builds an injector for net. Call Arm (after setting Obs /
// OnEvent) to schedule the events. Every schedule is built by the
// program, so an outage of a plane net has no links of is a bug: it
// panics here, before the run.
func NewInjector(eng *sim.Engine, net *sim.Network, sched Schedule) *Injector {
	for _, e := range sched.Events {
		if len(planeLinks(net.G, e.Plane)) == 0 {
			panic(fmt.Sprintf("chaos: outage at t=%v: no links in plane %d", e.At, e.Plane))
		}
	}
	return &Injector{Eng: eng, Net: net, sched: sched}
}

// Arm schedules every event of the schedule into the engine. Call once,
// before running the simulation past the first event time.
func (in *Injector) Arm() {
	if in.armed {
		panic("chaos: injector armed twice")
	}
	in.armed = true
	for _, e := range in.sched.Events {
		in.Eng.At(e.At, func() { in.apply(e) })
	}
}

// LinksDown reports how many directed links of the network are down.
func (in *Injector) LinksDown() int {
	n := 0
	for id := range in.Net.G.NumLinks() {
		if !in.Net.LinkUp(graph.LinkID(id)) {
			n++
		}
	}
	return n
}

// apply takes the event's plane down and records it.
func (in *Injector) apply(e Event) {
	for _, id := range planeLinks(in.Net.G, e.Plane) {
		in.Net.SetLinkUp(id, false)
	}
	if in.Obs != nil {
		in.Obs.RecordFault(obs.FaultRecord{
			Net:    in.NetID,
			TPs:    int64(in.Eng.Now()),
			Event:  "inject",
			Target: e.Target(),
			Plane:  e.Plane,
		})
	}
	if in.OnEvent != nil {
		in.OnEvent(e)
	}
}

func planeLinks(g *graph.Graph, plane int32) []graph.LinkID {
	var links []graph.LinkID
	for i := 0; i < g.NumLinks(); i++ {
		if g.Link(graph.LinkID(i)).Plane == plane {
			links = append(links, graph.LinkID(i))
		}
	}
	return links
}
