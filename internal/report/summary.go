package report

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"pnet/internal/metrics"
	"pnet/internal/obs"
	"pnet/internal/sim"
)

// SchemaVersion is bumped whenever RunSummary's JSON shape changes
// incompatibly, so a report written by a newer binary is refused rather
// than misread. Removing a field is compatible: the decoder ignores keys
// it does not know.
const SchemaVersion = 1

// Dist summarizes one distribution. Its percentiles interpolate between
// closest ranks (metrics.Percentile). FCT and fault distributions are
// taken from the raw samples; link utilization and queue depth, too many
// to keep, from counts of values rounded to 0.001 and to 1 byte.
type Dist struct {
	Count int64   `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
	P999  float64 `json:"p999"`
	Max   float64 `json:"max"`
}

// PlaneShare is one dataplane's slice of the run's traffic.
type PlaneShare struct {
	Plane int32   `json:"plane"`
	Bytes int64   `json:"bytes"`
	Share float64 `json:"share"` // fraction of all plane bytes
}

// SolverSummary aggregates the LP/flow-solver invocations of a run.
type SolverSummary struct {
	Calls      int     `json:"calls"`
	Phases     int64   `json:"phases"`
	Iterations int64   `json:"iterations"`
	Attempts   int64   `json:"attempts"`
	WallSec    float64 `json:"wall_s"` // total wall time of all solves
	// Solves splits the work by (experiment, solver, K), sorted by those
	// keys, so that a diff can tell more solves from costlier ones.
	Solves []SolveTotals `json:"solves,omitempty"`
}

// SolveTotals sums the solver records of one (experiment, solver, K).
type SolveTotals struct {
	Exp        string `json:"exp"`
	Solver     string `json:"solver"`
	K          int    `json:"k,omitempty"`
	Calls      int    `json:"calls"`
	Phases     int64  `json:"phases"`
	Iterations int64  `json:"iterations"`
}

// name is the solve's row prefix in a diff.
func (t SolveTotals) name() string {
	return fmt.Sprintf("solver.%s.%s.k%d", t.Exp, t.Solver, t.K)
}

// EngineSummary aggregates the event-engine samples of a run.
type EngineSummary struct {
	Networks     int     `json:"networks"`
	Events       uint64  `json:"events"`
	WallSec      float64 `json:"wall_s"`
	EventsPerSec float64 `json:"events_per_sec"`
	SimSec       float64 `json:"sim_s"` // latest sim timestamp sampled
}

// FaultSummary aggregates a run's runtime-fault lifecycle: what the
// outage did, what the hosts measured while surviving it. All
// latency distributions are in seconds of sim time.
type FaultSummary struct {
	Injected   int64 `json:"injected"`
	Detected   int64 `json:"detected"`
	Blackholed int64 `json:"blackholed"` // packets lost to down links
	// DetectLatency is injection→detection (the health monitor's lag);
	// FailoverLatency is detection→first repath; Recovery is
	// injection→goodput back at pre-fault level; DipFrac is the goodput
	// dip depth in [0,1].
	DetectLatency   Dist `json:"detect_latency_s"`
	FailoverLatency Dist `json:"failover_latency_s"`
	Recovery        Dist `json:"recovery_s"`
	DipFrac         Dist `json:"dip_frac"`
}

// FingerprintSummary folds the per-engine determinism chains into a
// run-level invariant. Global is the XOR fold of each engine's final
// chain value — XOR is commutative, so the fold is independent of engine
// attach order and therefore of worker count, even though the engines'
// NetIDs are not. Two runs of the same experiment at the same seed must
// match on every field.
type FingerprintSummary struct {
	Engines     int   `json:"engines"`
	EpochEvents int64 `json:"epoch_events"`
	Events      int64 `json:"events"` // total events folded, all engines
	// Global is 16-digit hex (see obs.FormatHash).
	Global string `json:"global"`
}

// RunSummary is one run of the experiment harness reduced to the
// quantities the paper's evaluation plots: FCT percentiles (Figs. 9-11,
// 13, 16-20), per-plane balance (Figs. 6/8), solver convergence, and
// engine throughput. It is what `pnetbench -report` writes and what
// pnetstat's summary and diff read.
type RunSummary struct {
	SchemaVersion int    `json:"schema_version"`
	Created       string `json:"created,omitempty"` // RFC3339
	Exp           string `json:"exp,omitempty"`
	Scale         string `json:"scale,omitempty"`
	Seed          int64  `json:"seed,omitempty"`
	// Workers and GOMAXPROCS record the parallelism the run executed
	// with, so a wall-clock movement between two reports can be attributed
	// to scheduling rather than code. Neither affects any gated metric:
	// results are bit-identical across worker counts.
	Workers    int `json:"workers,omitempty"`
	GOMAXPROCS int `json:"gomaxprocs,omitempty"`

	Flows       int64   `json:"flows"`
	FlowBytes   int64   `json:"flow_bytes"`
	Retransmits int64   `json:"retransmits"`
	FCT         Dist    `json:"fct_s"`
	GoodputBps  float64 `json:"goodput_bps,omitempty"`

	PlaneShares    []PlaneShare `json:"plane_shares,omitempty"`
	PlaneImbalance float64      `json:"plane_imbalance,omitempty"` // max/mean of plane bytes

	LinkUtil   Dist  `json:"link_util"`
	QueueBytes Dist  `json:"queue_bytes"`
	Drops      int64 `json:"drops"`

	Solver SolverSummary `json:"solver"`
	Engine EngineSummary `json:"engine"`

	// Attribution decomposes the run's FCTs into span components. It is
	// present only for runs that enabled spans (pnetbench -spans), so
	// baselines from span-free runs stay byte-compatible.
	Attribution *AttributionSummary `json:"attribution,omitempty"`

	// Faults is present only for runs with fault activity (an injected
	// outage or blackholed packets) — absent for the fault-free runs
	// of older baselines, which keeps the schema backward compatible.
	Faults *FaultSummary `json:"faults,omitempty"`

	// Fingerprint is the run's determinism fingerprint, present only for
	// runs that enabled it (pnetbench -fingerprint).
	Fingerprint *FingerprintSummary `json:"fingerprint,omitempty"`
}

// Meta carries what telemetry itself does not record: the run's identity.
// Every other summary value is a reduction of the run's records.
type Meta struct {
	Exp     string
	Scale   string
	Seed    int64
	Created string // RFC3339; stamped by the caller, never by this package
	// Workers and GOMAXPROCS attribute the run's parallelism (0 = not
	// recorded, keeping older baselines byte-compatible).
	Workers    int
	GOMAXPROCS int
}

// Aggregator reduces a run's records into a RunSummary as they arrive,
// in bounded memory however many samples there are (`-exp all` takes tens
// of millions of link lines): it keeps one float per flow, the spans of
// flows that carry them, and per network the last value of each
// cumulative counter. It is an obs.Sink, and the only way to a summary:
// `pnetbench -report` sets it as the collector's Sink, and LoadRun
// decodes a metrics file into one.
//
// An Aggregator accepts records from concurrently-running networks:
// every reduction it performs (integer sums, per-net last-value maps,
// value counts, max sim time, XOR folds) is commutative across
// networks, so the summary is independent of arrival order and therefore
// of worker count. A float sum depends on the order of its terms, so link
// utilization is summed per network and the networks' sums are added in
// sorted order. Within one network records must arrive in emission order,
// as they do from an engine and from a file.
type Aggregator struct {
	mu      sync.Mutex
	fcts    []float64
	bytes   int64
	retrans int64
	util    counts // link utilization, to 0.001
	queue   counts // link queue depth, in bytes
	queued  int64  // sum of sampled queue bytes
	nets    map[int]*netState
	events  uint64
	wallNs  int64
	simPs   int64
	solver  SolverSummary
	solves  map[solveKey]*SolveTotals

	faultInjected, faultDetected              int64
	detectLat, failoverLat, recovery, dipFrac []float64

	// Latency attribution: exact integer-picosecond sums per (component,
	// plane) plus the per-flow spans retained for the tail re-aggregation.
	spanPs    map[[2]int64]int64
	spanFlows []spanFlow
}

type solveKey struct {
	exp, solver string
	k           int
}

// netState is what the summary needs of one network (one engine, one
// NetID). Link and plane samples carry counters cumulative since the
// simulation started, so only the last value per key counts; fingerprint
// checkpoints are cumulative too, so only the last one does.
type netState struct {
	drops      map[int64]int64 // by link
	blackholed map[int64]int64 // by link
	planeBytes map[int32]int64 // by plane
	utilSum    float64         // sum of sampled link utilizations
	sampled    bool            // an engine record named this network
	fp         *obs.FingerprintRecord
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator {
	return &Aggregator{
		util:   counts{per: 1000, n: map[int64]int64{}},
		queue:  counts{per: 1, n: map[int64]int64{}},
		nets:   map[int]*netState{},
		solves: map[solveKey]*SolveTotals{},
		spanPs: map[[2]int64]int64{},
	}
}

// counts holds a sample as how often each value occurs, every value
// rounded to the nearest multiple of 1/per, so it grows with the number
// of distinct rounded values and not with the number of observations.
// Count, min and max are exact.
type counts struct {
	per      float64         // steps per unit
	n        map[int64]int64 // occurrences by value in steps
	count    int64
	min, max float64
}

func (c *counts) add(v float64) {
	c.n[int64(math.Round(v*c.per))]++
	if c.count == 0 || v < c.min {
		c.min = v
	}
	if c.count == 0 || v > c.max {
		c.max = v
	}
	c.count++
}

// dist summarizes the sample, its percentiles clamped to the exact
// [min, max]; sum is the observations' total, which c does not keep.
func (c *counts) dist(sum float64) Dist {
	if c.count == 0 {
		return Dist{}
	}
	steps := make([]int64, 0, len(c.n))
	for k := range c.n {
		steps = append(steps, k)
	}
	slices.Sort(steps)
	values := make([]float64, len(steps))
	occurs := make([]int64, len(steps))
	for i, k := range steps {
		values[i] = float64(k) / c.per
		occurs[i] = c.n[k]
	}
	at := func(p float64) float64 {
		return min(max(metrics.PercentileOfCounts(values, occurs, p), c.min), c.max)
	}
	return Dist{
		Count: c.count,
		Mean:  sum / float64(c.count),
		Min:   c.min,
		P50:   at(50),
		P99:   at(99),
		P999:  at(99.9),
		Max:   c.max,
	}
}

// net returns the state of network id. The caller holds x.mu.
func (x *Aggregator) net(id int) *netState {
	n := x.nets[id]
	if n == nil {
		n = &netState{drops: map[int64]int64{}, blackholed: map[int64]int64{}, planeBytes: map[int32]int64{}}
		x.nets[id] = n
	}
	return n
}

// Link implements obs.Sink.
func (x *Aggregator) Link(r obs.LinkRecord) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.util.add(r.Util)
	x.queue.add(float64(r.QueueBytes))
	x.queued += int64(r.QueueBytes)
	n := x.net(r.Net)
	n.utilSum += r.Util
	n.drops[r.Link] = r.Drops
	if r.Blackholed > 0 {
		n.blackholed[r.Link] = r.Blackholed
	}
	if r.TPs > x.simPs {
		x.simPs = r.TPs
	}
}

// Plane implements obs.Sink.
func (x *Aggregator) Plane(r obs.PlaneRecord) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.net(r.Net).planeBytes[r.Plane] = r.TxBytes
	if r.TPs > x.simPs {
		x.simPs = r.TPs
	}
}

// Engine implements obs.Sink.
func (x *Aggregator) Engine(r obs.EngineRecord) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.net(r.Net).sampled = true
	x.events += r.Events
	x.wallNs += r.WallNano
	if r.TPs > x.simPs {
		x.simPs = r.TPs
	}
}

// Flow implements obs.Sink.
func (x *Aggregator) Flow(f obs.FlowRecord) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.fcts = append(x.fcts, f.FCT)
	x.bytes += f.Bytes
	x.retrans += f.Retransmits
	if len(f.Spans) > 0 {
		for _, sp := range f.Spans {
			ci, ok := sim.ParseSpanComponent(sp.Component)
			if !ok {
				continue // the reader rejects these; defensive for the live path
			}
			x.spanPs[[2]int64{int64(ci), int64(sp.Plane)}] += sp.Ps
		}
		x.spanFlows = append(x.spanFlows, spanFlow{fct: f.FCT, spans: f.Spans})
	}
}

// Solver implements obs.Sink.
func (x *Aggregator) Solver(r obs.SolverRecord) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.solver.Calls++
	x.solver.Phases += int64(r.Phases)
	x.solver.Iterations += r.Iterations
	x.solver.Attempts += int64(r.Attempts)
	x.solver.WallSec += r.WallSec
	k := solveKey{r.Exp, r.Solver, r.K}
	t := x.solves[k]
	if t == nil {
		t = &SolveTotals{Exp: r.Exp, Solver: r.Solver, K: r.K}
		x.solves[k] = t
	}
	t.Calls++
	t.Phases += int64(r.Phases)
	t.Iterations += r.Iterations
}

// Fault implements obs.Sink.
func (x *Aggregator) Fault(r obs.FaultRecord) {
	x.mu.Lock()
	defer x.mu.Unlock()
	switch r.Event {
	case "inject":
		x.faultInjected++
	case "detect":
		x.faultDetected++
		if r.LatencySec > 0 {
			x.detectLat = append(x.detectLat, r.LatencySec)
		}
	case "failover":
		if r.LatencySec > 0 {
			x.failoverLat = append(x.failoverLat, r.LatencySec)
		}
	case "recover":
		if r.LatencySec > 0 {
			x.recovery = append(x.recovery, r.LatencySec)
		}
		if r.DipFrac > 0 {
			x.dipFrac = append(x.dipFrac, r.DipFrac)
		}
	}
}

// Fingerprint implements obs.Sink. Checkpoints arrive in epoch order
// within a net, so the last one seen is the engine's final chain state.
func (x *Aggregator) Fingerprint(r obs.FingerprintRecord) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.net(r.Net).fp = &r
}

// Summarize returns the summary of everything received so far. For a live
// run call it after obs.Collector.Close, which emits the closing engine
// records and fingerprint checkpoints.
func (x *Aggregator) Summarize(m Meta) RunSummary {
	x.mu.Lock()
	defer x.mu.Unlock()
	s := RunSummary{
		SchemaVersion: SchemaVersion,
		Created:       m.Created,
		Exp:           m.Exp,
		Scale:         m.Scale,
		Seed:          m.Seed,
		Workers:       m.Workers,
		GOMAXPROCS:    m.GOMAXPROCS,
		Flows:         int64(len(x.fcts)),
		FlowBytes:     x.bytes,
		Retransmits:   x.retrans,
		FCT:           distFromSamples(x.fcts),
		QueueBytes:    x.queue.dist(float64(x.queued)),
		Solver:        x.solver,
	}
	for _, t := range x.solves {
		s.Solver.Solves = append(s.Solver.Solves, *t)
	}
	slices.SortFunc(s.Solver.Solves, func(a, b SolveTotals) int {
		return cmp.Or(strings.Compare(a.Exp, b.Exp), strings.Compare(a.Solver, b.Solver), cmp.Compare(a.K, b.K))
	})

	// One pass over the networks: sums of last values, XOR folds of final
	// chains (commutative, so attach order cannot change them).
	var blackholed, total, fpEvents, fpEpoch int64
	var sampled, fingerprinted int
	var fpGlobal uint64
	perPlane := map[int32]int64{}
	utilSums := make([]float64, 0, len(x.nets))
	for _, n := range x.nets {
		utilSums = append(utilSums, n.utilSum)
		for _, d := range n.drops {
			s.Drops += d
		}
		for _, b := range n.blackholed {
			blackholed += b
		}
		for p, b := range n.planeBytes {
			perPlane[p] += b
			total += b
		}
		if n.sampled {
			sampled++
		}
		if r := n.fp; r != nil {
			fingerprinted++
			fpEvents += r.Events
			if r.EpochEvents > fpEpoch {
				fpEpoch = r.EpochEvents
			}
			g, _ := obs.ParseHash(r.Hash) // the reader validated it
			fpGlobal ^= g
		}
	}
	sort.Float64s(utilSums)
	var utilSum float64
	for _, u := range utilSums {
		utilSum += u
	}
	s.LinkUtil = x.util.dist(utilSum)

	if x.faultInjected > 0 || x.faultDetected > 0 || blackholed > 0 {
		s.Faults = &FaultSummary{
			Injected:        x.faultInjected,
			Detected:        x.faultDetected,
			Blackholed:      blackholed,
			DetectLatency:   distFromSamples(x.detectLat),
			FailoverLatency: distFromSamples(x.failoverLat),
			Recovery:        distFromSamples(x.recovery),
			DipFrac:         distFromSamples(x.dipFrac),
		}
	}

	// Per-plane byte shares, merged across networks, sorted by plane.
	planes := sortedPlanes(perPlane)
	var maxBytes int64
	for _, p := range planes {
		b := perPlane[p]
		share := 0.0
		if total > 0 {
			share = float64(b) / float64(total)
		}
		s.PlaneShares = append(s.PlaneShares, PlaneShare{Plane: p, Bytes: b, Share: share})
		if b > maxBytes {
			maxBytes = b
		}
	}
	if len(planes) > 0 && total > 0 {
		mean := float64(total) / float64(len(planes))
		s.PlaneImbalance = float64(maxBytes) / mean
	}

	s.Engine = EngineSummary{
		Networks: sampled,
		Events:   x.events,
		WallSec:  float64(x.wallNs) / 1e9,
		SimSec:   float64(x.simPs) / 1e12,
	}
	if s.Engine.WallSec > 0 {
		s.Engine.EventsPerSec = float64(x.events) / s.Engine.WallSec
	}
	if s.Engine.SimSec > 0 {
		s.GoodputBps = float64(x.bytes) * 8 / s.Engine.SimSec
	}

	if fingerprinted > 0 {
		s.Fingerprint = &FingerprintSummary{
			Engines:     fingerprinted,
			EpochEvents: fpEpoch,
			Events:      fpEvents,
			Global:      obs.FormatHash(fpGlobal),
		}
	}

	s.Attribution = x.attributionSummary(s.FCT.P999)
	return s
}

// sortedPlanes returns m's keys in ascending order.
func sortedPlanes[V any](m map[int32]V) []int32 {
	planes := make([]int32, 0, len(m))
	for p := range m {
		planes = append(planes, p)
	}
	sort.Slice(planes, func(i, j int) bool { return planes[i] < planes[j] })
	return planes
}

// distFromSamples is the exact path: one sort, in metrics.Summarize.
func distFromSamples(xs []float64) Dist {
	if len(xs) == 0 {
		return Dist{}
	}
	m := metrics.Summarize(xs)
	return Dist{
		Count: int64(m.N),
		Mean:  m.Mean,
		Min:   m.Min,
		P50:   m.Median,
		P99:   m.P99,
		P999:  m.P999,
		Max:   m.Max,
	}
}

// String renders the summary for humans: the FCT tail, plane balance,
// solver convergence, and engine throughput the acceptance figures need.
func (s RunSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run: exp=%s scale=%s seed=%d", orDash(s.Exp), orDash(s.Scale), s.Seed)
	if s.Created != "" {
		fmt.Fprintf(&b, " created=%s", s.Created)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "flows: %d (%d bytes, %d retransmits)\n", s.Flows, s.FlowBytes, s.Retransmits)
	if s.FCT.Count > 0 {
		fmt.Fprintf(&b, "fct:   p50=%s p99=%s p999=%s mean=%s max=%s\n",
			secs(s.FCT.P50), secs(s.FCT.P99), secs(s.FCT.P999), secs(s.FCT.Mean), secs(s.FCT.Max))
	}
	if s.GoodputBps > 0 {
		fmt.Fprintf(&b, "goodput: %.4g Gbit/s over %.4g s of sim time\n", s.GoodputBps/1e9, s.Engine.SimSec)
	}
	if len(s.PlaneShares) > 0 {
		b.WriteString("planes:")
		for _, p := range s.PlaneShares {
			fmt.Fprintf(&b, " %d=%.1f%%", p.Plane, p.Share*100)
		}
		fmt.Fprintf(&b, " (imbalance max/mean %.3f)\n", s.PlaneImbalance)
	}
	if s.LinkUtil.Count > 0 {
		fmt.Fprintf(&b, "link util: p50=%.3f p99=%.3f max=%.3f (%d samples); drops=%d\n",
			s.LinkUtil.P50, s.LinkUtil.P99, s.LinkUtil.Max, s.LinkUtil.Count, s.Drops)
	}
	fmt.Fprintf(&b, "solver: %d calls, %d phases, %d iterations, wall %.3fs\n",
		s.Solver.Calls, s.Solver.Phases, s.Solver.Iterations, s.Solver.WallSec)
	if s.Engine.Events > 0 {
		fmt.Fprintf(&b, "engine: %d events in %.3fs wall (%.3g events/s) across %d networks\n",
			s.Engine.Events, s.Engine.WallSec, s.Engine.EventsPerSec, s.Engine.Networks)
	}
	if a := s.Attribution; a != nil {
		b.WriteString("attribution:")
		byComp := map[string]float64{}
		for _, c := range a.Overall {
			byComp[c.Component] += c.Share
		}
		for _, name := range sim.SpanComponentNames() {
			if sh, ok := byComp[name]; ok {
				fmt.Fprintf(&b, " %s=%.1f%%", name, sh*100)
			}
		}
		fmt.Fprintf(&b, " over %d flows (pnetstat attribution for the tables)\n", a.Flows)
	}
	if fp := s.Fingerprint; fp != nil {
		fmt.Fprintf(&b, "fingerprint: global=%s (%d events, %d engines, epoch %d)\n",
			fp.Global, fp.Events, fp.Engines, fp.EpochEvents)
	}
	if f := s.Faults; f != nil {
		fmt.Fprintf(&b, "faults: %d injected, %d detected; %d blackholed",
			f.Injected, f.Detected, f.Blackholed)
		if f.DetectLatency.Count > 0 {
			fmt.Fprintf(&b, "; detect p50=%s max=%s", secs(f.DetectLatency.P50), secs(f.DetectLatency.Max))
		}
		if f.FailoverLatency.Count > 0 {
			fmt.Fprintf(&b, "; failover p50=%s", secs(f.FailoverLatency.P50))
		}
		if f.Recovery.Count > 0 {
			fmt.Fprintf(&b, "; recovery p50=%s", secs(f.Recovery.P50))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// secs formats seconds with engineering-friendly precision.
func secs(v float64) string {
	switch {
	case v >= 1:
		return fmt.Sprintf("%.3gs", v)
	case v >= 1e-3:
		return fmt.Sprintf("%.3gms", v*1e3)
	case v >= 1e-6:
		return fmt.Sprintf("%.3gus", v*1e6)
	default:
		return fmt.Sprintf("%.0fns", v*1e9)
	}
}
