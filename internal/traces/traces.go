// Package traces embeds the flow-size distributions of the five published
// datacenter workloads the paper evaluates (§5.3, Figure 13a): web search
// [DCTCP, Alizadeh et al. 2010], data mining [VL2, Greenberg et al. 2009],
// and the Facebook web-server, cache, and Hadoop traces [Roy et al. 2015].
//
// The paper's artifact ships these as CSV files digitized from the source
// papers' CDF figures; this package embeds equivalent piecewise
// distributions directly. Points are approximate digitizations — the
// experiments consume only the overall shape (the mice/elephant mix), not
// exact values.
package traces

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Point is one knot of a flow-size CDF: P(size ≤ Bytes) = P.
type Point struct {
	Bytes float64
	P     float64
}

// SizeCDF is a piecewise log-linear flow-size distribution.
type SizeCDF struct {
	Name   string
	Points []Point
}

// validate reports why the CDF is malformed, or nil; called by the
// package tests on every embedded distribution.
func (c SizeCDF) validate() error {
	if len(c.Points) < 2 {
		return fmt.Errorf("traces: %s has %d points", c.Name, len(c.Points))
	}
	if c.Points[0].P != 0 || c.Points[len(c.Points)-1].P != 1 {
		return fmt.Errorf("traces: %s does not span [0,1]", c.Name)
	}
	for i := 1; i < len(c.Points); i++ {
		if c.Points[i].Bytes <= c.Points[i-1].Bytes || c.Points[i].P < c.Points[i-1].P {
			return fmt.Errorf("traces: %s not monotone at %d", c.Name, i)
		}
	}
	return nil
}

// Sample draws a flow size by inverse-transform sampling with log-linear
// interpolation between knots (flow sizes span 5+ decades, so linear
// interpolation in log-size matches the published log-x CDF plots).
func (c SizeCDF) Sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	return int64(math.Round(c.Quantile(u)))
}

// Quantile returns the flow size at cumulative probability p ∈ [0,1].
func (c SizeCDF) Quantile(p float64) float64 {
	pts := c.Points
	if p <= 0 {
		return pts[0].Bytes
	}
	if p >= 1 {
		return pts[len(pts)-1].Bytes
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].P >= p })
	if i == 0 {
		return pts[0].Bytes
	}
	lo, hi := pts[i-1], pts[i]
	if hi.P == lo.P {
		return hi.Bytes
	}
	frac := (p - lo.P) / (hi.P - lo.P)
	logSize := math.Log(lo.Bytes) + frac*(math.Log(hi.Bytes)-math.Log(lo.Bytes))
	return math.Exp(logSize)
}

// CDFAt returns P(size ≤ bytes).
func (c SizeCDF) CDFAt(bytes float64) float64 {
	pts := c.Points
	if bytes <= pts[0].Bytes {
		return 0
	}
	if bytes >= pts[len(pts)-1].Bytes {
		return 1
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].Bytes >= bytes })
	lo, hi := pts[i-1], pts[i]
	frac := (math.Log(bytes) - math.Log(lo.Bytes)) / (math.Log(hi.Bytes) - math.Log(lo.Bytes))
	return lo.P + frac*(hi.P-lo.P)
}

// MeanBytes numerically integrates the distribution's mean flow size.
func (c SizeCDF) MeanBytes() float64 {
	const steps = 10000
	var sum float64
	for i := 0; i < steps; i++ {
		sum += c.Quantile((float64(i) + 0.5) / steps)
	}
	return sum / steps
}

// WebSearch is the flow-size distribution of the DCTCP web-search
// workload: no tiny flows, a heavy mix of 10 kB–1 MB queries, and a tail
// to ~30 MB.
var WebSearch = SizeCDF{
	Name: "websearch",
	Points: []Point{
		{6e3, 0}, {1e4, 0.15}, {2e4, 0.20}, {3e4, 0.30}, {5e4, 0.40},
		{8e4, 0.53}, {2e5, 0.60}, {1e6, 0.70}, {2e6, 0.80}, {5e6, 0.90},
		{1e7, 0.97}, {3e7, 1},
	},
}

// DataMining is the VL2 data-mining distribution: more than half the
// flows are under 1 kB but nearly all bytes live in multi-MB-to-GB flows.
var DataMining = SizeCDF{
	Name: "datamining",
	Points: []Point{
		{50, 0}, {100, 0.10}, {300, 0.30}, {1e3, 0.50}, {2e3, 0.60},
		{1e4, 0.70}, {1e5, 0.80}, {1e6, 0.85}, {1e7, 0.90}, {1e8, 0.96},
		{1e9, 1},
	},
}

// WebServer is the Facebook web-server distribution: dominated by
// sub-10 kB request/response traffic.
var WebServer = SizeCDF{
	Name: "webserver",
	Points: []Point{
		{70, 0}, {100, 0.03}, {300, 0.20}, {1e3, 0.50}, {3e3, 0.75},
		{1e4, 0.90}, {1e5, 0.97}, {1e6, 0.99}, {1e7, 1},
	},
}

// Cache is the Facebook cache-follower distribution: mostly kB-to-MB
// object transfers.
var Cache = SizeCDF{
	Name: "cache",
	Points: []Point{
		{100, 0}, {1e3, 0.10}, {1e4, 0.40}, {1e5, 0.75}, {1e6, 0.90},
		{1e7, 0.97}, {1e8, 1},
	},
}

// Hadoop is the Facebook Hadoop distribution: a broad mix from control
// messages to 100 MB block transfers.
var Hadoop = SizeCDF{
	Name: "hadoop",
	Points: []Point{
		{100, 0}, {1e3, 0.30}, {1e4, 0.55}, {1e5, 0.75}, {1e6, 0.90},
		{1e7, 0.97}, {1e8, 1},
	},
}

// All returns the five embedded distributions in the paper's order.
func All() []SizeCDF {
	return []SizeCDF{WebServer, Cache, Hadoop, DataMining, WebSearch}
}
