package workload

import (
	"fmt"
	"sort"

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
	// NetID is the number Instrument's collector attached the network
	// under, which every record about it must carry.
	NetID int

	hashCtr uint64
	// Flows counts flows started; Completed counts OnComplete callbacks.
	Flows, Completed int64

	// flowDone and flowRelease are d.countCompletion and d.countRelease,
	// bound once so that starting a flow with nothing more to do builds
	// no closure.
	flowDone, flowRelease func(*tcp.Flow)
	// one holds StartFlow's single path, which tcp.NewFlow does not keep.
	one [1]graph.Path
}

// NewDriver builds the simulation environment for a topology.
func NewDriver(t *topo.Topology, simCfg sim.Config, tcpCfg tcp.Config) *Driver {
	eng := sim.NewEngine()
	d := &Driver{
		PNet: core.New(t),
		Eng:  eng,
		Net:  sim.NewNetwork(eng, t.G, simCfg),
		TCP:  tcpCfg,
	}
	d.flowDone = d.countCompletion
	d.flowRelease = d.countRelease
	return d
}

// resolve turns a Selection into concrete paths for a flow: the
// single-path policies return one, KSP returns many. A Selection with a
// Class is resolved by that class's Selector, any other by the PNet's.
// The paths' Links may be the Selector's caches and must only be read;
// an ECMP path is the Selector's walk buffer, valid only until the next
// resolve (tcp.NewFlow copies a one-path flow's route before that).
func (d *Driver) resolve(src, dst graph.NodeID, sel Selection) (one graph.Path, many []graph.Path, err error) {
	s := d.PNet.Selector
	if sel.Class != "" {
		if s = d.PNet.Class(sel.Class); s == nil {
			return graph.Path{}, nil, fmt.Errorf("workload: undefined class %q", sel.Class)
		}
	}
	var ok bool
	switch sel.Policy {
	case Shortest:
		one, ok = s.LowLatencyPath(src, dst)
	case ECMP:
		d.hashCtr++
		one, ok = s.ECMPPath(src, dst, d.hashCtr*0x9e3779b97f4a7c15)
	case KSP:
		k := sel.K
		if k <= 0 {
			k = core.SubflowsFor(s.Planes())
		}
		many = s.HighThroughputPaths(src, dst, k)
		ok = len(many) > 0
	default:
		return graph.Path{}, nil, fmt.Errorf("workload: unknown policy %d", sel.Policy)
	}
	if !ok {
		what := [...]string{Shortest: "path", ECMP: "ECMP path", KSP: "KSP paths"}[sel.Policy]
		if sel.Class != "" {
			return graph.Path{}, nil, fmt.Errorf("workload: class %q: no %s %d->%d", sel.Class, what, src, dst)
		}
		return graph.Path{}, nil, fmt.Errorf("workload: no %s %d->%d", what, src, dst)
	}
	return one, many, nil
}

// StartFlow creates and starts a flow of sizeBytes from src to dst.
// onDelivered (optional) fires at the receiver when all bytes arrive;
// onComplete (optional) fires at the sender when all bytes are acked.
func (d *Driver) StartFlow(src, dst graph.NodeID, sizeBytes int64, sel Selection,
	onDelivered, onComplete func(*tcp.Flow)) (*tcp.Flow, error) {

	return d.startFlow(src, dst, sizeBytes, sel, onDelivered, onComplete, false)
}

// startRPCFlow starts one of RunRPC's requests or responses, a flow its
// caller never sees: once completion has counted it (and recorded it,
// under Obs), the flow is released, and its block serves a later flow
// when its last packet is home (tcp.Flow.Release).
func (d *Driver) startRPCFlow(src, dst graph.NodeID, sizeBytes int64, sel Selection, onDelivered func(*tcp.Flow)) error {
	_, err := d.startFlow(src, dst, sizeBytes, sel, onDelivered, nil, true)
	return err
}

func (d *Driver) startFlow(src, dst graph.NodeID, sizeBytes int64, sel Selection,
	onDelivered, onComplete func(*tcp.Flow), release bool) (*tcp.Flow, error) {

	one, paths, err := d.resolve(src, dst, sel)
	if err != nil {
		return nil, err
	}
	if paths == nil {
		d.one[0] = one
		paths = d.one[:]
	}
	return d.startOnPaths(paths, sizeBytes, onDelivered, onComplete, release)
}

// Instrument attaches a telemetry collector: the network's tracer and
// sampler are wired up, and every completed flow is recorded. A nil
// collector is a no-op.
func (d *Driver) Instrument(c *obs.Collector) {
	d.Obs = c
	d.NetID = c.AttachNetwork(d.Eng, d.Net)
}

// StartFlowOnPaths starts a flow over explicitly chosen paths (the faults
// experiment's least-loaded placement, which also sets the flow's Repath
// hook).
func (d *Driver) StartFlowOnPaths(paths []graph.Path, sizeBytes int64,
	onDelivered, onComplete func(*tcp.Flow)) (*tcp.Flow, error) {

	return d.startOnPaths(paths, sizeBytes, onDelivered, onComplete, false)
}

func (d *Driver) startOnPaths(paths []graph.Path, sizeBytes int64,
	onDelivered, onComplete func(*tcp.Flow), release bool) (*tcp.Flow, error) {

	f, err := tcp.NewFlow(d.Net, d.TCP, paths, sizeBytes)
	if err != nil {
		return nil, err
	}
	f.OnDelivered = onDelivered
	d.Flows++
	f.ID = d.Flows
	f.OnComplete = d.completion(paths, sizeBytes, onComplete, release)
	f.Start()
	return f, nil
}

// countCompletion is the OnComplete of a flow with nothing more to do;
// countRelease that of one nobody will touch again.
func (d *Driver) countCompletion(*tcp.Flow) { d.Completed++ }

func (d *Driver) countRelease(f *tcp.Flow) {
	d.Completed++
	f.Release()
}

// completion builds a flow's OnComplete, which releases the flow last if
// release is set. Only a flow with a record to write or a caller's
// callback to run needs a closure of its own. The record names the
// endpoints and planes of the paths the flow started on, read now because
// paths may be StartFlow's scratch.
func (d *Driver) completion(paths []graph.Path, sizeBytes int64, onComplete func(*tcp.Flow), release bool) func(*tcp.Flow) {
	if d.Obs == nil {
		switch {
		case onComplete == nil && release:
			return d.flowRelease
		case onComplete == nil:
			return d.flowDone
		}
		return func(f *tcp.Flow) {
			d.Completed++
			onComplete(f)
			if release {
				f.Release()
			}
		}
	}
	g := d.Net.G
	src, dst := int64(paths[0].Src(g)), int64(paths[0].Dst(g))
	planes := planesOf(g, paths)
	return func(f *tcp.Flow) {
		d.Completed++
		d.Obs.RecordFlow(obs.FlowRecord{
			Net:         d.NetID,
			ID:          f.ID,
			TPs:         int64(f.Finished),
			Transport:   "tcp",
			Src:         src,
			Dst:         dst,
			Bytes:       sizeBytes,
			FCT:         f.FCT().Seconds(),
			Retransmits: f.Retransmits,
			Subflows:    f.Subflows(),
			Planes:      planes,
			Spans:       spanShares(f.Attribution()),
		})
		if onComplete != nil {
			onComplete(f)
		}
		if release {
			f.Release()
		}
	}
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
	d.Eng.RunUntil(deadline)
	if d.Completed < want {
		return fmt.Errorf("workload: %d of %d flows completed by %v (drops=%d)",
			d.Completed, want, deadline, d.Net.TotalDrops())
	}
	return nil
}
