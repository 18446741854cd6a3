package report

// Latency attribution: a run's simulated FCT decomposed into span
// components per plane. Everything here is deterministic, gateable and
// bit-identical across worker counts.

import (
	"fmt"
	"sort"
	"strings"

	"pnet/internal/obs"
	"pnet/internal/sim"
)

// AttributionCell is one (component, plane) slice of attributed time.
// Plane is -1 for components not tied to a link (stalls, host waits).
type AttributionCell struct {
	Component string  `json:"component"`
	Plane     int32   `json:"plane"`
	Seconds   float64 `json:"seconds"`
	Share     float64 `json:"share"`
}

// AttributionSummary is a run's FCT decomposition: where the seconds of
// every flow's completion time went. Overall covers all flows carrying
// spans; Tail re-aggregates only the flows at or above the FCT p99.9,
// answering "what is the tail made of" directly.
type AttributionSummary struct {
	Flows    int64             `json:"flows"`
	TotalSec float64           `json:"total_s"`
	Overall  []AttributionCell `json:"overall"`

	TailThresholdSec float64           `json:"tail_threshold_s,omitempty"`
	TailFlows        int64             `json:"tail_flows,omitempty"`
	Tail             []AttributionCell `json:"tail,omitempty"`
}

// ComponentShare sums a component's share across planes (0 if absent).
func (a *AttributionSummary) ComponentShare(name string) float64 {
	if a == nil {
		return 0
	}
	var s float64
	for _, c := range a.Overall {
		if c.Component == name {
			s += c.Share
		}
	}
	return s
}

// spanFlow retains one flow's spans for tail re-aggregation.
type spanFlow struct {
	fct   float64
	spans []obs.SpanShare
}

// attributionSummary reduces the accumulated span cells. thresh is the
// tail FCT threshold in seconds (p99.9 of the run's FCTs).
func (a *Aggregator) attributionSummary(thresh float64) *AttributionSummary {
	if len(a.spanPs) == 0 {
		return nil
	}
	var totalPs int64
	for _, ps := range a.spanPs {
		totalPs += ps
	}
	s := &AttributionSummary{
		Flows:    int64(len(a.spanFlows)),
		TotalSec: float64(totalPs) / 1e12,
		Overall:  cellsFromPs(a.spanPs, totalPs),
	}
	if thresh > 0 {
		tail := map[[2]int64]int64{}
		var tailPs int64
		for _, f := range a.spanFlows {
			if f.fct < thresh {
				continue
			}
			s.TailFlows++
			for _, sp := range f.spans {
				ci, ok := sim.ParseSpanComponent(sp.Component)
				if !ok {
					continue
				}
				tail[[2]int64{int64(ci), int64(sp.Plane)}] += sp.Ps
				tailPs += sp.Ps
			}
		}
		if s.TailFlows > 0 {
			s.TailThresholdSec = thresh
			s.Tail = cellsFromPs(tail, tailPs)
		}
	}
	return s
}

// cellsFromPs renders a (component, plane) → picoseconds map as sorted
// cells. Shares are ratios of exact integer sums, so they are identical
// however the picoseconds accumulated.
func cellsFromPs(m map[[2]int64]int64, totalPs int64) []AttributionCell {
	keys := make([][2]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]AttributionCell, 0, len(keys))
	for _, k := range keys {
		share := 0.0
		if totalPs > 0 {
			share = float64(m[k]) / float64(totalPs)
		}
		out = append(out, AttributionCell{
			Component: sim.SpanComponent(k[0]).String(),
			Plane:     int32(k[1]),
			Seconds:   float64(m[k]) / 1e12,
			Share:     share,
		})
	}
	return out
}

// AttributionString renders the full attribution tables — the payload of
// `pnetstat attribution` — of a run that carries them (s.Attribution is
// non-nil). Purely simulated-time quantities: the output is
// byte-identical for a fixed seed at any worker count.
func (s RunSummary) AttributionString() string {
	a := s.Attribution
	var b strings.Builder
	fmt.Fprintf(&b, "attribution: %d flows, %s attributed", a.Flows, secs(a.TotalSec))
	if s.FCT.Count > 0 {
		fmt.Fprintf(&b, " (fct p50=%s p999=%s)", secs(s.FCT.P50), secs(s.FCT.P999))
	}
	b.WriteByte('\n')
	writeCells(&b, "overall", a.Overall)
	if len(a.Tail) > 0 {
		fmt.Fprintf(&b, "tail: %d flows with fct >= %s (p99.9)\n", a.TailFlows, secs(a.TailThresholdSec))
		writeCells(&b, "tail", a.Tail)
	}
	return b.String()
}

func writeCells(b *strings.Builder, label string, cells []AttributionCell) {
	for _, c := range cells {
		plane := "    -"
		if c.Plane >= 0 {
			plane = fmt.Sprintf("%5d", c.Plane)
		}
		fmt.Fprintf(b, "  %-8s %-10s plane %s  %12s  %6.2f%%\n",
			label, c.Component, plane, secs(c.Seconds), c.Share*100)
	}
}
