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
	// NetID is the number the collector attached Net under
	// (workload.Driver.NetID), which the records carry.
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
// OnEvent) to schedule the events. A schedule that fails Check against
// net's graph panics here: callers check user-supplied schedules first
// (pnetbench's -chaos, through exp.CheckChaos), so reaching it is a bug.
func NewInjector(eng *sim.Engine, net *sim.Network, sched Schedule) *Injector {
	if err := sched.Check(net.G); err != nil {
		panic(err)
	}
	return &Injector{
		Eng:       eng,
		Net:       net,
		sched:     sched,
		downCount: make([]int, net.G.NumLinks()),
	}
}

// Check returns an error naming the first event whose target g does not
// have: a link or switch ID out of range, or a plane with no links. A
// mistyped schedule should fail before the run, not mid-run.
func (s Schedule) Check(g *graph.Graph) error {
	for _, e := range s.Events {
		switch e.Kind {
		case LinkDown, LinkUp:
			if e.Link < 0 || int(e.Link) >= g.NumLinks() {
				return fmt.Errorf("chaos: %v: link %d out of range [0,%d)", e, e.Link, g.NumLinks())
			}
		case SwitchDown, SwitchUp:
			if e.Node < 0 || int(e.Node) >= g.NumNodes() {
				return fmt.Errorf("chaos: %v: node %d out of range [0,%d)", e, e.Node, g.NumNodes())
			}
		case PlaneDown, PlaneUp:
			if len(planeLinks(g, e.Plane)) == 0 {
				return fmt.Errorf("chaos: %v: no links in plane %d", e, e.Plane)
			}
		default:
			return fmt.Errorf("chaos: unknown event kind %d", e.Kind)
		}
	}
	return nil
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
		return planeLinks(g, e.Plane)
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

func planeLinks(g *graph.Graph, plane int32) []graph.LinkID {
	var links []graph.LinkID
	for i := 0; i < g.NumLinks(); i++ {
		if g.Link(graph.LinkID(i)).Plane == plane {
			links = append(links, graph.LinkID(i))
		}
	}
	return links
}
