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

	// OnRepath, when set, observes every subflow path swap (see Repaths).
	OnRepath func(f *tcp.Flow, subflow int, to graph.Path)

	hashCtr uint64
	// Flows counts flows started; Completed counts OnComplete callbacks.
	Flows, Completed int64
	// Repaths counts subflow path swaps across all flows — nonzero only
	// when TCP.StallRTOs enables stall-driven repathing and a fault
	// actually pushed flows off their original routes.
	Repaths int64

	// The callbacks flows share, bound once so that starting a flow builds
	// no closure: flowDone is d.countCompletion, flowRepathed is
	// d.countRepath, and repaths holds one resolver per Selection seen.
	flowDone     func(*tcp.Flow)
	flowRepathed func(*tcp.Flow, int, graph.Path)
	repaths      []selectionRepath
	// one holds StartFlow's single path, which tcp.NewFlow does not keep.
	one [1]graph.Path
}

// selectionRepath is the stall-repath resolver of one Selection.
type selectionRepath struct {
	sel    Selection
	repath func(*tcp.Flow, int) (graph.Path, bool)
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
	d.flowRepathed = d.countRepath
	return d
}

// PathsFor resolves a Selection into concrete paths for a flow. The paths'
// Links may be shared with core.PNet's route caches and must only be read.
func (d *Driver) PathsFor(src, dst graph.NodeID, sel Selection) ([]graph.Path, error) {
	one, many, err := d.resolve(src, dst, sel)
	if many == nil && err == nil {
		many = []graph.Path{one}
	}
	return many, err
}

// resolve is PathsFor without the slice for a single path: the
// single-path policies return one, KSP returns many.
func (d *Driver) resolve(src, dst graph.NodeID, sel Selection) (graph.Path, []graph.Path, error) {
	if sel.Class != "" {
		return d.classResolve(src, dst, sel)
	}
	switch sel.Policy {
	case Shortest:
		p, ok := d.PNet.LowLatencyPath(src, dst)
		if !ok {
			return graph.Path{}, nil, fmt.Errorf("workload: no path %d->%d", src, dst)
		}
		return p, nil, nil
	case ECMP:
		d.hashCtr++
		p, ok := d.PNet.ECMPPath(src, dst, d.hashCtr*0x9e3779b97f4a7c15)
		if !ok {
			return graph.Path{}, nil, fmt.Errorf("workload: no ECMP path %d->%d", src, dst)
		}
		return p, nil, nil
	case KSP:
		k := sel.K
		if k <= 0 {
			k = core.SubflowsFor(d.PNet.Planes())
		}
		ps := d.PNet.HighThroughputPaths(src, dst, k)
		if len(ps) == 0 {
			return graph.Path{}, nil, fmt.Errorf("workload: no KSP paths %d->%d", src, dst)
		}
		return graph.Path{}, ps, nil
	default:
		return graph.Path{}, nil, fmt.Errorf("workload: unknown policy %d", sel.Policy)
	}
}

// classResolve resolves a class-confined Selection.
func (d *Driver) classResolve(src, dst graph.NodeID, sel Selection) (graph.Path, []graph.Path, error) {
	switch sel.Policy {
	case Shortest:
		p, ok := d.PNet.ClassLowLatencyPath(sel.Class, src, dst)
		if !ok {
			return graph.Path{}, nil, fmt.Errorf("workload: class %q: no path %d->%d", sel.Class, src, dst)
		}
		return p, nil, nil
	case ECMP:
		d.hashCtr++
		p, ok := d.PNet.ClassPath(sel.Class, src, dst, d.hashCtr*0x9e3779b97f4a7c15)
		if !ok {
			return graph.Path{}, nil, fmt.Errorf("workload: class %q: no ECMP path %d->%d", sel.Class, src, dst)
		}
		return p, nil, nil
	case KSP:
		k := sel.K
		if k <= 0 {
			k = core.SubflowsFor(len(d.PNet.Class(sel.Class)))
		}
		ps := d.PNet.ClassPaths(sel.Class, src, dst, k)
		if len(ps) == 0 {
			return graph.Path{}, nil, fmt.Errorf("workload: class %q: no KSP paths %d->%d", sel.Class, src, dst)
		}
		return graph.Path{}, ps, nil
	default:
		return graph.Path{}, nil, fmt.Errorf("workload: unknown policy %d", sel.Policy)
	}
}

// StartFlow creates and starts a flow of sizeBytes from src to dst.
// onDelivered (optional) fires at the receiver when all bytes arrive;
// onComplete (optional) fires at the sender when all bytes are acked.
func (d *Driver) StartFlow(src, dst graph.NodeID, sizeBytes int64, sel Selection,
	onDelivered, onComplete func(*tcp.Flow)) (*tcp.Flow, error) {

	one, paths, err := d.resolve(src, dst, sel)
	if err != nil {
		return nil, err
	}
	if paths == nil {
		d.one[0] = one
		paths = d.one[:]
	}
	// Stalled subflows re-resolve through the same selection, which by
	// then reflects what the health monitor has learned — the end-host
	// failover loop of §3.4.
	return d.startFlow(paths, sel, sizeBytes, onDelivered, onComplete)
}

// repathFor returns the stall-repath resolver for a selection, built the
// first time the selection is seen: re-run the policy against the current
// (post-detection) routing state and give subflow i the i-th resulting
// path. On a serial network, or before the monitor has condemned the
// broken plane, this naturally returns the same path and the subflow stays
// put.
func (d *Driver) repathFor(sel Selection) func(*tcp.Flow, int) (graph.Path, bool) {
	for _, r := range d.repaths {
		if r.sel == sel {
			return r.repath
		}
	}
	repath := func(f *tcp.Flow, i int) (graph.Path, bool) {
		cur := f.SubflowPath(i)
		paths, err := d.PathsFor(cur.Src(d.Net.G), cur.Dst(d.Net.G), sel)
		if err != nil || len(paths) == 0 {
			return graph.Path{}, false
		}
		return paths[i%len(paths)], true
	}
	d.repaths = append(d.repaths, selectionRepath{sel, repath})
	return repath
}

// Instrument attaches a telemetry collector: the network's tracer and
// sampler are wired up, and every completed flow is recorded. A nil
// collector is a no-op.
func (d *Driver) Instrument(c *obs.Collector) {
	d.Obs = c
	d.NetID = c.AttachNetwork(d.Eng, d.Net)
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
	f.OnRepath = d.flowRepathed
	f.OnComplete = d.completion(paths, sizeBytes, onComplete)
	f.Start()
	return f, nil
}

// countRepath is every flow's OnRepath.
func (d *Driver) countRepath(f *tcp.Flow, i int, to graph.Path) {
	d.Repaths++
	if d.OnRepath != nil {
		d.OnRepath(f, i, to)
	}
}

// countCompletion is the OnComplete of a flow with nothing more to do.
func (d *Driver) countCompletion(*tcp.Flow) { d.Completed++ }

// completion builds a flow's OnComplete. Only a flow with a record to
// write or a caller's callback to run needs a closure of its own. The
// record names the endpoints and planes of the paths the flow started on,
// read now because paths may be StartFlow's scratch.
func (d *Driver) completion(paths []graph.Path, sizeBytes int64, onComplete func(*tcp.Flow)) func(*tcp.Flow) {
	if d.Obs == nil {
		if onComplete == nil {
			return d.flowDone
		}
		return func(f *tcp.Flow) {
			d.Completed++
			onComplete(f)
		}
	}
	g := d.Net.G
	src, dst := int64(paths[0].Src(g)), int64(paths[0].Dst(g))
	planes := planesOf(g, paths)
	return func(f *tcp.Flow) {
		d.Completed++
		d.Obs.RecordFlow(obs.FlowRecord{
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
