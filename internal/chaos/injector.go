package chaos

import (
	"fmt"

	"pnet/internal/graph"
	"pnet/internal/obs"
	"pnet/internal/sim"
)

// Injector applies a Schedule to one simulated network. Every event
// expands to a set of directed links (a switch crash is all links
// touching the node, a plane outage all links of the plane), and each
// link carries a down-reference count so overlapping faults compose: a
// link downed by both a Poisson glitch and a plane outage comes back
// only when both have cleared.
type Injector struct {
	Eng *sim.Engine
	Net *sim.Network

	// Obs, when set, receives an "inject"/"clear" FaultRecord per event.
	Obs *obs.Collector
	// NetID tags the records when several networks share a collector.
	NetID int
	// OnEvent, when set, observes each event just after it is applied —
	// the hook experiments use to correlate injection times with
	// detection and recovery.
	OnEvent func(Event)

	sched     Schedule
	downCount []int
	armed     bool
}

// NewInjector builds an injector for net. Call Arm (after setting Obs /
// OnEvent) to schedule the events.
func NewInjector(eng *sim.Engine, net *sim.Network, sched Schedule) *Injector {
	in := &Injector{
		Eng:       eng,
		Net:       net,
		sched:     sched,
		downCount: make([]int, net.G.NumLinks()),
	}
	for _, e := range sched.Events {
		in.validate(e)
	}
	return in
}

// validate panics early on targets the network does not have, naming the
// event — a mistyped schedule should fail at construction, not mid-run.
func (in *Injector) validate(e Event) {
	g := in.Net.G
	switch e.Kind {
	case LinkDown, LinkUp:
		g.Link(e.Link) // bounds-checked, panics with the offending ID
	case SwitchDown, SwitchUp:
		if e.Node < 0 || int(e.Node) >= g.NumNodes() {
			panic(fmt.Sprintf("chaos: %v: node %d out of range [0,%d)", e, e.Node, g.NumNodes()))
		}
	case PlaneDown, PlaneUp:
		if len(in.planeLinks(e.Plane)) == 0 {
			panic(fmt.Sprintf("chaos: %v: no links in plane %d", e, e.Plane))
		}
	default:
		panic(fmt.Sprintf("chaos: unknown event kind %d", e.Kind))
	}
}

// Arm schedules every event of the schedule into the engine. Call once,
// before running the simulation past the first event time.
func (in *Injector) Arm() {
	if in.armed {
		panic("chaos: injector armed twice")
	}
	in.armed = true
	for _, e := range in.sched.Events {
		e := e
		in.Eng.At(e.At, func() { in.apply(e) })
	}
}

// LinksDown reports how many directed links are currently held down by
// the injector.
func (in *Injector) LinksDown() int {
	n := 0
	for _, c := range in.downCount {
		if c > 0 {
			n++
		}
	}
	return n
}

// apply expands an event to its links and flips the refcounts; only the
// 0→1 and 1→0 transitions touch the network.
func (in *Injector) apply(e Event) {
	for _, id := range in.targetLinks(e) {
		if e.Kind.Injecting() {
			in.downCount[id]++
			if in.downCount[id] == 1 {
				in.Net.SetLinkUp(id, false)
			}
		} else if in.downCount[id] > 0 {
			in.downCount[id]--
			if in.downCount[id] == 0 {
				in.Net.SetLinkUp(id, true)
			}
		}
	}
	if in.Obs != nil {
		ev := "clear"
		if e.Kind.Injecting() {
			ev = "inject"
		}
		in.Obs.RecordFault(obs.FaultRecord{
			Net:    in.NetID,
			TPs:    int64(in.Eng.Now()),
			Event:  ev,
			Target: e.Target(),
			Plane:  in.eventPlane(e),
		})
	}
	if in.OnEvent != nil {
		in.OnEvent(e)
	}
}

// targetLinks expands an event to the directed links it affects.
func (in *Injector) targetLinks(e Event) []graph.LinkID {
	g := in.Net.G
	switch e.Kind {
	case LinkDown, LinkUp:
		return []graph.LinkID{e.Link}
	case SwitchDown, SwitchUp:
		links := append([]graph.LinkID(nil), g.OutLinks(e.Node)...)
		return append(links, g.InLinks(e.Node)...)
	default:
		return in.planeLinks(e.Plane)
	}
}

// eventPlane reports the dataplane an event affects, -1 when it is not
// plane-specific (a switch touches every plane's links... or none).
func (in *Injector) eventPlane(e Event) int32 {
	switch e.Kind {
	case LinkDown, LinkUp:
		return in.Net.G.Link(e.Link).Plane
	case PlaneDown, PlaneUp:
		return e.Plane
	default:
		return -1
	}
}

func (in *Injector) planeLinks(plane int32) []graph.LinkID {
	g := in.Net.G
	var links []graph.LinkID
	for i := 0; i < g.NumLinks(); i++ {
		if g.Link(graph.LinkID(i)).Plane == plane {
			links = append(links, graph.LinkID(i))
		}
	}
	return links
}
