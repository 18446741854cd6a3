package report

// Latency attribution and event-loop profile summaries: the two sides of
// this package's "explain the time" story. Attribution decomposes
// simulated FCT into span components (deterministic, gateable); the
// profile decomposes the event loop's work by kind and plane. Everything
// here except the wall-second fields is bit-identical across worker
// counts.

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

// ProfileBinSummary is one (event kind, plane) bin of the merged flight
// recordings. Events is deterministic; WallSec is this host's.
type ProfileBinSummary struct {
	Kind    string  `json:"kind"`
	Plane   int32   `json:"plane"`
	Events  int64   `json:"events"`
	WallSec float64 `json:"wall_s"`
}

// ProfilePlane is one dataplane's in-plane work (hop + tx events).
type ProfilePlane struct {
	Plane   int32   `json:"plane"`
	Events  int64   `json:"events"`
	WallSec float64 `json:"wall_s"`
	// EventsPerSimSec is the plane's event rate per second of profiled
	// sim time.
	EventsPerSimSec float64 `json:"events_per_sim_sec,omitempty"`
}

// ProfileSummary is the event-loop flight recording reduced to where the
// engine's work goes: how much of the event loop is per-plane work and
// how much crosses the host boundary. Event counts are deterministic;
// wall times are this machine's.
type ProfileSummary struct {
	Engines int     `json:"engines"`
	Events  int64   `json:"events"`
	WallSec float64 `json:"wall_s"`
	SimSec  float64 `json:"sim_s,omitempty"` // profiled sim time, summed over engines

	Bins   []ProfileBinSummary `json:"bins"`
	Planes []ProfilePlane      `json:"planes,omitempty"`

	// HostEvents counts deliver + timer events — the work that executes
	// host-side code (transports, timers) rather than in-plane queues.
	HostEvents  int64   `json:"host_events"`
	HostFrac    float64 `json:"host_frac"`
	HostWallSec float64 `json:"host_wall_s"`
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

// profileSummary reduces the accumulated flight-recorder bins of the
// given number of engines, simPs of profiled sim time between them.
func (a *Aggregator) profileSummary(engines int, simPs int64) *ProfileSummary {
	if len(a.profBins) == 0 {
		return nil
	}
	keys := make([][2]int64, 0, len(a.profBins))
	for k := range a.profBins {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})

	s := &ProfileSummary{
		Engines: engines,
		SimSec:  float64(simPs) / 1e12,
	}
	var hostWallNs, totalWallNs int64
	planeEv := map[int32]int64{}
	planeWall := map[int32]int64{}
	for _, k := range keys {
		b := a.profBins[k]
		kind := sim.EventKind(k[0])
		plane := int32(k[1])
		s.Bins = append(s.Bins, ProfileBinSummary{
			Kind: kind.String(), Plane: plane,
			Events: b[0], WallSec: float64(b[1]) / 1e9,
		})
		s.Events += b[0]
		totalWallNs += b[1]
		if kind.HostBoundary() {
			s.HostEvents += b[0]
			hostWallNs += b[1]
		} else if plane >= 0 {
			planeEv[plane] += b[0]
			planeWall[plane] += b[1]
		}
	}
	s.WallSec = float64(totalWallNs) / 1e9
	s.HostWallSec = float64(hostWallNs) / 1e9
	if s.Events > 0 {
		s.HostFrac = float64(s.HostEvents) / float64(s.Events)
	}

	for _, p := range sortedPlanes(planeEv) {
		pp := ProfilePlane{Plane: p, Events: planeEv[p], WallSec: float64(planeWall[p]) / 1e9}
		if s.SimSec > 0 {
			pp.EventsPerSimSec = float64(planeEv[p]) / s.SimSec
		}
		s.Planes = append(s.Planes, pp)
	}
	return s
}

// AttributionString renders the full attribution tables — the payload of
// `pnetstat attribution`. Purely simulated-time quantities: the output
// is byte-identical for a fixed seed at any worker count.
func (s RunSummary) AttributionString() string {
	a := s.Attribution
	if a == nil {
		return "no attribution data (run with spans enabled, e.g. pnetbench -spans)\n"
	}
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

// ProfileString renders the event-loop profile — the payload of
// `pnetstat profile`. Event counts are deterministic; wall times are this
// machine's.
func (s RunSummary) ProfileString() string {
	p := s.Profile
	if p == nil {
		return "no profile data (run with the flight recorder enabled, e.g. pnetbench -spans)\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "profile: %d events across %d engine(s), %.3fs wall\n",
		p.Events, p.Engines, p.WallSec)
	for _, bin := range p.Bins {
		plane := "    -"
		if bin.Plane >= 0 {
			plane = fmt.Sprintf("%5d", bin.Plane)
		}
		fmt.Fprintf(&b, "  %-8s plane %s  %12d events  %10.4fs wall\n",
			bin.Kind, plane, bin.Events, bin.WallSec)
	}
	for _, pl := range p.Planes {
		fmt.Fprintf(&b, "plane %d: %d in-plane events", pl.Plane, pl.Events)
		if pl.EventsPerSimSec > 0 {
			fmt.Fprintf(&b, " (%.4g events per sim-second)", pl.EventsPerSimSec)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "host boundary: %d events (%.2f%% of all), %.3fs wall\n",
		p.HostEvents, p.HostFrac*100, p.HostWallSec)
	return b.String()
}
