package core

import (
	"fmt"

	"pnet/internal/graph"
	"pnet/internal/sim"
)

// The probe-based plane liveness detector's settings.
const (
	// probeInterval is the time between probe rounds.
	probeInterval = 100 * sim.Microsecond
	// downAfter is the silence threshold: a plane with no probe echo for
	// this long is declared down. It must comfortably exceed the probe
	// round-trip time, or a healthy plane will be declared down while its
	// first echo is still in flight.
	downAfter = 3 * probeInterval
	// probeSize is the probe packet size in bytes.
	probeSize = 64
)

// PlaneEvent is one observed liveness transition, stamped with the sim
// time the monitor made the call — the host's (late) view of a physical
// fault, whose lag behind the injection time IS the detection latency.
type PlaneEvent struct {
	Plane int
	Up    bool
	At    sim.Time
}

// HealthMonitor is the non-oracle fault detector of §3.4: an end host
// that continuously probes every dataplane and drives the PNet failover
// policies (MarkPlaneDown / MarkPlaneUp) from what the probes report,
// never from the simulator's physical state. Each round it loops one
// small probe per plane through the fabric (host → peer → host, pinned
// inside the plane); a plane whose echoes stop for downAfter is declared
// down, and a declared-down plane whose fresh probes come back is
// declared up again.
//
// Probe routes are computed once at construction, while the graph is
// pristine — a real deployment would pin its liveness probes the same
// way, precisely so that they do not depend on the (possibly broken)
// routing state they are meant to diagnose.
type HealthMonitor struct {
	Eng *sim.Engine
	Net *sim.Network
	P   *PNet

	// OnChange, when set, observes every declared transition.
	OnChange func(PlaneEvent)

	until    sim.Time
	routes   [][]graph.LinkID // per plane: host→peer→host loop
	handler  []probeHandler   // per plane, fixed Deliver targets
	lastEcho []sim.Time       // latest fresh echo per plane
	declDown []bool           // monitor's current verdict per plane
	reupSeq  []int64          // echoes older than this do not count toward re-up
	seq      int64
}

// probeHandler routes a delivered probe back to its monitor with the
// plane identity attached (one fixed handler per plane keeps the hot
// path allocation-free).
type probeHandler struct {
	m     *HealthMonitor
	plane int
}

func (h *probeHandler) HandlePacket(p *sim.Packet) { h.m.echo(h.plane, p) }

// NewHealthMonitor builds a monitor probing from host (an index into the
// topology's hosts) through peer and back, once per plane, every 100 µs
// until the sim time until (0 = probe forever — only safe with
// Engine.RunUntil, since the monitor reschedules perpetually). It panics
// if some plane has no in-plane loop between the two hosts.
func NewHealthMonitor(eng *sim.Engine, net *sim.Network, p *PNet, host, peer int, until sim.Time) *HealthMonitor {
	if host == peer {
		panic("core: health monitor needs two distinct hosts")
	}
	t := p.Topo
	m := &HealthMonitor{
		Eng:      eng,
		Net:      net,
		P:        p,
		until:    until,
		routes:   make([][]graph.LinkID, t.Planes),
		handler:  make([]probeHandler, t.Planes),
		lastEcho: make([]sim.Time, t.Planes),
		declDown: make([]bool, t.Planes),
		reupSeq:  make([]int64, t.Planes),
	}
	for plane := 0; plane < t.Planes; plane++ {
		m.handler[plane] = probeHandler{m: m, plane: plane}
		banned := make([]bool, t.G.NumLinks())
		for i := 0; i < t.G.NumLinks(); i++ {
			if t.G.Link(graph.LinkID(i)).Plane != int32(plane) {
				banned[i] = true
			}
		}
		fwd := graph.KShortestPathsMasked(t.G, t.Hosts[host], t.Hosts[peer], 1, banned)
		if len(fwd) == 0 {
			panic(fmt.Sprintf("core: no probe path in plane %d between hosts %d and %d", plane, host, peer))
		}
		rev, ok := graph.ReversePath(t.G, fwd[0])
		if !ok {
			panic(fmt.Sprintf("core: probe path in plane %d has no reverse", plane))
		}
		m.routes[plane] = append(append([]graph.LinkID(nil), fwd[0].Links...), rev.Links...)
	}
	return m
}

// Start begins probing. Echo timers start at the current sim time, so a
// plane that is already dead is detected downAfter from now.
func (m *HealthMonitor) Start() {
	now := m.Eng.Now()
	for plane := range m.lastEcho {
		m.lastEcho[plane] = now
	}
	m.tick()
}

func (m *HealthMonitor) tick() {
	now := m.Eng.Now()
	for plane := range m.routes {
		if !m.declDown[plane] && now-m.lastEcho[plane] > downAfter {
			m.declDown[plane] = true
			// Echoes already in flight were sent over a plane we just
			// condemned; only probes from here on can rehabilitate it.
			m.reupSeq[plane] = m.seq
			m.P.MarkPlaneDown(plane)
			if m.OnChange != nil {
				m.OnChange(PlaneEvent{Plane: plane, Up: false, At: now})
			}
		}
		m.probe(plane)
	}
	if m.until == 0 || now+probeInterval <= m.until {
		m.Eng.After(probeInterval, m.tick)
	}
}

// probe loops one packet through the plane; declared-down planes keep
// being probed — that is how recovery is noticed.
func (m *HealthMonitor) probe(plane int) {
	p := m.Net.NewPacket()
	p.Size = probeSize
	p.Route = m.routes[plane]
	p.Deliver = &m.handler[plane]
	p.Seq = m.seq
	p.FlowID = -1 // not transport traffic; keeps probes distinct in traces
	m.seq++
	m.Net.Send(p)
}

func (m *HealthMonitor) echo(plane int, p *sim.Packet) {
	seq := p.Seq
	m.Net.Release(p)
	if m.declDown[plane] && seq < m.reupSeq[plane] {
		return // stale echo from before the down verdict
	}
	m.lastEcho[plane] = m.Eng.Now()
	if m.declDown[plane] {
		m.declDown[plane] = false
		m.P.MarkPlaneUp(plane)
		if m.OnChange != nil {
			m.OnChange(PlaneEvent{Plane: plane, Up: true, At: m.Eng.Now()})
		}
	}
}
