package workload

import (
	"fmt"
	"sort"
	"time"

	"pnet/internal/core"
	"pnet/internal/graph"
	"pnet/internal/obs"
	"pnet/internal/sim"
	"pnet/internal/tcp"
	"pnet/internal/topo"
)

// Policy selects how a driver routes each flow.
type Policy int

const (
	// Shortest uses the single lowest-hop path across all planes (the
	// paper's "low-latency" interface; in heterogeneous P-Nets this
	// exploits per-pair shorter planes).
	Shortest Policy = iota
	// ECMP pins each flow to one hash-selected shortest path; distinct
	// flows between the same pair spread over planes and equal-cost
	// paths, as in the paper's single-path experiments.
	ECMP
	// KSP gives each flow K subflows over the K shortest paths across
	// planes (MPTCP).
	KSP
)

// Selection is a routing policy plus its multipath degree.
type Selection struct {
	Policy Policy
	// K is the subflow count for KSP (ignored otherwise).
	K int
	// Class, when set, confines routing to the planes assigned to the
	// named traffic class (core.SetClass) — the paper's §7 performance
	// isolation.
	Class string
}

// Driver couples a topology, its packet-level network, and the P-Net
// end-host control plane, and starts transport flows under a Selection.
type Driver struct {
	PNet *core.PNet
	Eng  *sim.Engine
	Net  *sim.Network
	TCP  tcp.Config

	// Obs, when set (via Instrument), receives per-flow records and
	// drives the network's tracer and sampler. Nil costs nothing.
	Obs *obs.Collector

	// OnRepath, when set, observes every subflow path swap (see Repaths).
	OnRepath func(f *tcp.Flow, subflow int, to graph.Path)

	hashCtr uint64
	// Flows counts flows started; Completed counts OnComplete callbacks.
	Flows, Completed int64
	// Repaths counts subflow path swaps across all flows — nonzero only
	// when TCP.StallRTOs enables stall-driven repathing and a fault
	// actually pushed flows off their original routes.
	Repaths int64
}

// NewDriver builds the simulation environment for a topology.
func NewDriver(t *topo.Topology, simCfg sim.Config, tcpCfg tcp.Config) *Driver {
	eng := sim.NewEngine()
	return &Driver{
		PNet: core.New(t),
		Eng:  eng,
		Net:  sim.NewNetwork(eng, t.G, simCfg),
		TCP:  tcpCfg,
	}
}

// RunUntil fires all events up to and including the deadline and
// accumulates the wall time spent into the collector (`run_wall_s`).
func (d *Driver) RunUntil(deadline sim.Time) int {
	start := time.Now()
	fired := d.Eng.RunUntil(deadline)
	d.Obs.AddRunWall(time.Since(start))
	return fired
}

// PathsFor resolves a Selection into concrete paths for a flow.
func (d *Driver) PathsFor(src, dst graph.NodeID, sel Selection) ([]graph.Path, error) {
	if sel.Class != "" {
		return d.classPathsFor(src, dst, sel)
	}
	switch sel.Policy {
	case Shortest:
		p, ok := d.PNet.LowLatencyPath(src, dst)
		if !ok {
			return nil, fmt.Errorf("workload: no path %d->%d", src, dst)
		}
		return []graph.Path{p}, nil
	case ECMP:
		d.hashCtr++
		p, ok := d.PNet.ECMPPath(src, dst, d.hashCtr*0x9e3779b97f4a7c15)
		if !ok {
			return nil, fmt.Errorf("workload: no ECMP path %d->%d", src, dst)
		}
		return []graph.Path{p}, nil
	case KSP:
		k := sel.K
		if k <= 0 {
			k = core.SubflowsFor(d.PNet.Planes())
		}
		ps := d.PNet.HighThroughputPaths(src, dst, k)
		if len(ps) == 0 {
			return nil, fmt.Errorf("workload: no KSP paths %d->%d", src, dst)
		}
		return ps, nil
	default:
		return nil, fmt.Errorf("workload: unknown policy %d", sel.Policy)
	}
}

// classPathsFor resolves a class-confined Selection.
func (d *Driver) classPathsFor(src, dst graph.NodeID, sel Selection) ([]graph.Path, error) {
	switch sel.Policy {
	case Shortest:
		p, ok := d.PNet.ClassLowLatencyPath(sel.Class, src, dst)
		if !ok {
			return nil, fmt.Errorf("workload: class %q: no path %d->%d", sel.Class, src, dst)
		}
		return []graph.Path{p}, nil
	case ECMP:
		d.hashCtr++
		p, ok := d.PNet.ClassPath(sel.Class, src, dst, d.hashCtr*0x9e3779b97f4a7c15)
		if !ok {
			return nil, fmt.Errorf("workload: class %q: no ECMP path %d->%d", sel.Class, src, dst)
		}
		return []graph.Path{p}, nil
	case KSP:
		k := sel.K
		if k <= 0 {
			k = core.SubflowsFor(len(d.PNet.Class(sel.Class)))
		}
		ps := d.PNet.ClassPaths(sel.Class, src, dst, k)
		if len(ps) == 0 {
			return nil, fmt.Errorf("workload: class %q: no KSP paths %d->%d", sel.Class, src, dst)
		}
		return ps, nil
	default:
		return nil, fmt.Errorf("workload: unknown policy %d", sel.Policy)
	}
}

// StartFlow creates and starts a flow of sizeBytes from src to dst.
// onDelivered (optional) fires at the receiver when all bytes arrive;
// onComplete (optional) fires at the sender when all bytes are acked.
func (d *Driver) StartFlow(src, dst graph.NodeID, sizeBytes int64, sel Selection,
	onDelivered, onComplete func(*tcp.Flow)) (*tcp.Flow, error) {

	paths, err := d.PathsFor(src, dst, sel)
	if err != nil {
		return nil, err
	}
	// Stalled subflows re-resolve through the same selection, which by
	// then reflects what the health monitor has learned — the end-host
	// failover loop of §3.4.
	return d.startFlow(paths, sel, sizeBytes, onDelivered, onComplete)
}

// repathFor builds the stall-repath resolver for a selection: re-run the
// policy against the current (post-detection) routing state and give
// subflow i the i-th resulting path. On a serial network, or before the
// monitor has condemned the broken plane, this naturally returns the
// same path and the subflow stays put.
func (d *Driver) repathFor(sel Selection) func(*tcp.Flow, int) (graph.Path, bool) {
	return func(f *tcp.Flow, i int) (graph.Path, bool) {
		cur := f.SubflowPath(i)
		src, dst := cur.Src(d.Net.G), cur.Dst(d.Net.G)
		paths, err := d.PathsFor(src, dst, sel)
		if err != nil || len(paths) == 0 {
			return graph.Path{}, false
		}
		return paths[i%len(paths)], true
	}
}

// Instrument attaches a telemetry collector: the network's tracer and
// sampler are wired up, and every completed flow is recorded. A nil
// collector is a no-op.
func (d *Driver) Instrument(c *obs.Collector) {
	d.Obs = c
	c.AttachNetwork(d.Eng, d.Net)
}

// StartFlowOnPaths starts a flow over explicitly chosen paths (used by
// the adaptive selector and custom policies). A stalled subflow re-resolves
// to the current shortest path.
func (d *Driver) StartFlowOnPaths(paths []graph.Path, sizeBytes int64,
	onDelivered, onComplete func(*tcp.Flow)) (*tcp.Flow, error) {

	return d.startFlow(paths, Selection{Policy: Shortest}, sizeBytes, onDelivered, onComplete)
}

// startFlow starts a flow on paths whose stalled subflows re-resolve
// through repath.
func (d *Driver) startFlow(paths []graph.Path, repath Selection, sizeBytes int64,
	onDelivered, onComplete func(*tcp.Flow)) (*tcp.Flow, error) {

	f, err := tcp.NewFlow(d.Net, d.TCP, paths, sizeBytes)
	if err != nil {
		return nil, err
	}
	f.OnDelivered = onDelivered
	d.Flows++
	f.ID = d.Flows
	f.Repath = d.repathFor(repath)
	f.OnRepath = func(fl *tcp.Flow, i int, to graph.Path) {
		d.Repaths++
		if d.OnRepath != nil {
			d.OnRepath(fl, i, to)
		}
	}
	f.OnComplete = func(fl *tcp.Flow) {
		d.Completed++
		if d.Obs != nil {
			d.Obs.RecordFlow(obs.FlowRecord{
				ID:          fl.ID,
				TPs:         int64(fl.Finished),
				Transport:   "tcp",
				Src:         int64(paths[0].Src(d.Net.G)),
				Dst:         int64(paths[0].Dst(d.Net.G)),
				Bytes:       sizeBytes,
				FCT:         fl.FCT().Seconds(),
				Retransmits: fl.Retransmits,
				Subflows:    fl.Subflows(),
				Planes:      planesOf(d.Net.G, paths),
				Spans:       spanShares(fl.Attribution()),
			})
		}
		if onComplete != nil {
			onComplete(fl)
		}
	}
	f.Start()
	return f, nil
}

// planesOf returns the distinct dataplanes a path set touches, sorted.
func planesOf(g *graph.Graph, paths []graph.Path) []int32 {
	seen := map[int32]bool{}
	var out []int32
	for _, p := range paths {
		pl := p.Plane(g)
		if !seen[pl] {
			seen[pl] = true
			out = append(out, pl)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// spanShares converts a flow's attribution cells to their JSONL shape.
// Nil in, nil out: flows on span-disabled networks carry no spans field.
func spanShares(totals []sim.SpanTotal) []obs.SpanShare {
	if len(totals) == 0 {
		return nil
	}
	out := make([]obs.SpanShare, len(totals))
	for i, t := range totals {
		out[i] = obs.SpanShare{Component: t.Comp.String(), Plane: t.Plane, Ps: int64(t.Dur)}
	}
	return out
}

// MustRunUntil drives the engine to the deadline and returns an error if
// fewer than want flows completed — the signal that a workload stalled.
func (d *Driver) MustRunUntil(deadline sim.Time, want int64) error {
	d.RunUntil(deadline)
	if d.Completed < want {
		return fmt.Errorf("workload: %d of %d flows completed by %v (drops=%d)",
			d.Completed, want, deadline, d.Net.TotalDrops())
	}
	return nil
}
