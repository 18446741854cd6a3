package workload

import (
	"fmt"

	"pnet/internal/graph"
	"pnet/internal/tcp"
)

// Adaptive path selection in the spirit of DARD [Wu & Yang, ICDCS 2012],
// which §3.4 of the paper cites as an end-host routing solution that
// P-Nets can run per dataplane: each new flow inspects the load of its
// candidate paths and takes the least-loaded one, instead of hashing
// blindly. The load signal here is the simulator's per-link transmitted
// bytes — an end-host-observable proxy for path utilization.

// AdaptiveSelector picks, per flow, the candidate path whose most-loaded
// link has carried the fewest bytes.
type AdaptiveSelector struct {
	d *Driver
	// K is the candidate set size (cross-plane KSP; default 8).
	K int
}

// NewAdaptiveSelector builds a selector over the driver's network.
func NewAdaptiveSelector(d *Driver, k int) *AdaptiveSelector {
	if k <= 0 {
		k = 8
	}
	return &AdaptiveSelector{d: d, K: k}
}

// load returns the bytes a link has carried so far.
func (a *AdaptiveSelector) load(id graph.LinkID) int64 {
	return a.d.Net.Stats(id).TxBytes
}

// Pick returns the candidate path minimizing the maximum per-link load.
// Ties break toward the shorter, then first, candidate.
func (a *AdaptiveSelector) Pick(src, dst graph.NodeID) (graph.Path, error) {
	candidates := a.d.PNet.HighThroughputPaths(src, dst, a.K)
	if len(candidates) == 0 {
		return graph.Path{}, fmt.Errorf("workload: no candidate paths %d->%d", src, dst)
	}
	best := -1
	var bestLoad int64
	for i, p := range candidates {
		var worst int64
		for _, l := range p.Links {
			if ld := a.load(l); ld > worst {
				worst = ld
			}
		}
		if best < 0 || worst < bestLoad ||
			(worst == bestLoad && p.Len() < candidates[best].Len()) {
			best = i
			bestLoad = worst
		}
	}
	return candidates[best], nil
}

// StartFlowAdaptive starts a single-path flow on the adaptively chosen
// path; callbacks as in Driver.StartFlow.
func (a *AdaptiveSelector) StartFlowAdaptive(src, dst graph.NodeID, sizeBytes int64,
	onDelivered, onComplete func(*tcp.Flow)) (*tcp.Flow, error) {

	path, err := a.Pick(src, dst)
	if err != nil {
		return nil, err
	}
	return a.d.StartFlowOnPaths([]graph.Path{path}, sizeBytes, onDelivered, onComplete)
}
