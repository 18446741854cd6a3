// Package topo builds the network topologies studied in the P-Net paper:
// k-ary fat trees, Jellyfish random graphs, and their parallel (multi-plane)
// compositions, plus the analytic component-count model behind Table 1.
//
// A topology is described in two steps. A PlaneSpec is a host-count-agnostic
// description of ONE dataplane: its switches, switch-to-switch wiring, and
// which switch hosts each end host's uplink. The assembler then combines one
// or more PlaneSpecs into a Topology — a single graph.Graph in which every
// host appears once (as a non-transit node) with one uplink per plane, and
// each plane's switches are disjoint from every other plane's. This mirrors
// the defining property of a P-Net: planes share nothing but the hosts.
package topo

import (
	"fmt"

	"pnet/internal/graph"
)

// PlaneSpec describes one dataplane, independent of other planes.
type PlaneSpec struct {
	// Switches is the number of switches in this plane.
	Switches int
	// Edges lists duplex switch-to-switch cables as index pairs.
	Edges [][2]int
	// HostPort maps each host (by index) to the switch it uplinks to.
	// Its length defines the number of hosts the plane serves.
	HostPort []int
	// Kind names the plane family ("fattree", "jellyfish", ...).
	Kind string
}

// Hosts returns the number of hosts the plane serves.
func (p PlaneSpec) Hosts() int { return len(p.HostPort) }

// Topology is an assembled (possibly multi-plane) network.
type Topology struct {
	Name string
	// G is the combined graph: hosts first, then plane 0's switches,
	// plane 1's switches, and so on.
	G *graph.Graph
	// Hosts lists the host node IDs (hosts are non-transit).
	Hosts []graph.NodeID
	// Planes is the number of dataplanes.
	Planes int
	// LinkSpeed is the per-link capacity in Gb/s.
	LinkSpeed float64
	// Uplinks[h][p] is the host-to-ToR link of host h on plane p;
	// Downlinks[h][p] is its reverse.
	Uplinks   [][]graph.LinkID
	Downlinks [][]graph.LinkID
	// SwitchBase[p] is the node ID of plane p's first switch; plane p's
	// switches are SwitchBase[p] .. SwitchBase[p]+SwitchCount[p)-1.
	SwitchBase  []graph.NodeID
	SwitchCount []int
	// ToR[h][p] is host h's top-of-rack switch node on plane p.
	ToR [][]graph.NodeID
	// RackOf[h] groups hosts into racks by their plane-0 ToR.
	RackOf []int
	// NumRacks is the number of distinct plane-0 ToR switches with hosts.
	NumRacks int
}

// checkPlanes is the rule every P-Net shares: Assemble's, and the last
// clause of every builder's Check.
func checkPlanes(planes int) error {
	if planes < 1 {
		return fmt.Errorf("topo: planes=%d: need at least 1", planes)
	}
	return nil
}

// Assemble combines the given planes into one Topology. All planes must
// serve the same number of hosts. speed is the capacity, in Gb/s, of every
// link (host uplinks and switch-switch links alike).
func Assemble(name string, speed float64, planes ...PlaneSpec) *Topology {
	if err := checkPlanes(len(planes)); err != nil {
		panic(err)
	}
	hosts := planes[0].Hosts()
	for i, p := range planes {
		if p.Hosts() != hosts {
			panic(fmt.Sprintf("topo: plane %d serves %d hosts, plane 0 serves %d",
				i, p.Hosts(), hosts))
		}
	}

	total := hosts
	for _, p := range planes {
		total += p.Switches
	}
	g := graph.New(total)

	t := &Topology{
		Name:        name,
		G:           g,
		Planes:      len(planes),
		LinkSpeed:   speed,
		Hosts:       make([]graph.NodeID, hosts),
		Uplinks:     make([][]graph.LinkID, hosts),
		Downlinks:   make([][]graph.LinkID, hosts),
		ToR:         make([][]graph.NodeID, hosts),
		SwitchBase:  make([]graph.NodeID, len(planes)),
		SwitchCount: make([]int, len(planes)),
	}
	for h := 0; h < hosts; h++ {
		t.Hosts[h] = graph.NodeID(h)
		g.SetTransit(graph.NodeID(h), false)
		t.Uplinks[h] = make([]graph.LinkID, len(planes))
		t.Downlinks[h] = make([]graph.LinkID, len(planes))
		t.ToR[h] = make([]graph.NodeID, len(planes))
	}

	base := hosts
	for pi, p := range planes {
		t.SwitchBase[pi] = graph.NodeID(base)
		t.SwitchCount[pi] = p.Switches
		sw := func(i int) graph.NodeID { return graph.NodeID(base + i) }
		for _, e := range p.Edges {
			g.AddDuplex(sw(e[0]), sw(e[1]), speed, int32(pi))
		}
		for h, s := range p.HostPort {
			up, down := g.AddDuplex(graph.NodeID(h), sw(s), speed, int32(pi))
			t.Uplinks[h][pi] = up
			t.Downlinks[h][pi] = down
			t.ToR[h][pi] = sw(s)
		}
		base += p.Switches
	}

	// Rack grouping by plane-0 ToR.
	t.RackOf = make([]int, hosts)
	rackIdx := map[graph.NodeID]int{}
	for h := 0; h < hosts; h++ {
		tor := t.ToR[h][0]
		idx, ok := rackIdx[tor]
		if !ok {
			idx = len(rackIdx)
			rackIdx[tor] = idx
		}
		t.RackOf[h] = idx
	}
	t.NumRacks = len(rackIdx)
	return t
}

// NumHosts returns the number of end hosts.
func (t *Topology) NumHosts() int { return len(t.Hosts) }

// PlaneOfSwitch returns which plane the switch node n belongs to, or -1 if
// n is a host.
func (t *Topology) PlaneOfSwitch(n graph.NodeID) int {
	for p := t.Planes - 1; p >= 0; p-- {
		if n >= t.SwitchBase[p] {
			return p
		}
	}
	return -1
}

// RackMembers returns the hosts in each rack.
func (t *Topology) RackMembers() [][]graph.NodeID {
	racks := make([][]graph.NodeID, t.NumRacks)
	for h, r := range t.RackOf {
		racks[r] = append(racks[r], graph.NodeID(h))
	}
	return racks
}

// InterSwitchLinks returns the IDs of all switch-to-switch links (each
// direction separately), excluding host uplinks/downlinks.
func (t *Topology) InterSwitchLinks() []graph.LinkID {
	hosts := len(t.Hosts)
	var out []graph.LinkID
	for i := 0; i < t.G.NumLinks(); i++ {
		l := t.G.Link(graph.LinkID(i))
		if int(l.Src) >= hosts && int(l.Dst) >= hosts {
			out = append(out, l.ID)
		}
	}
	return out
}
