package report

import (
	"fmt"
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

// Dist summarizes one distribution. FCT distributions are computed
// exactly from the raw samples; link-level distributions come from
// log-bucketed histograms (2x worst-case quantile error, like
// obs.Histogram).
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
}

// EngineSummary aggregates the event-engine samples of a run.
type EngineSummary struct {
	Networks     int     `json:"networks"`
	Events       uint64  `json:"events"`
	WallSec      float64 `json:"wall_s"`
	EventsPerSec float64 `json:"events_per_sec"`
	SimSec       float64 `json:"sim_s"` // latest sim timestamp sampled
	// RunWallSec is wall time measured inside engine runs
	// (workload.Driver.RunUntil), summed across sweep cells. Absent in
	// older baselines and in stream-path summaries; never gated (wall
	// clock).
	RunWallSec float64 `json:"run_wall_s,omitempty"`
}

// FaultSummary aggregates a run's runtime-fault lifecycle: what the
// chaos injector did, what the hosts measured while surviving it. All
// latency distributions are in seconds of sim time.
type FaultSummary struct {
	Injected   int64 `json:"injected"`
	Cleared    int64 `json:"cleared"`
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

// FingerprintSummary folds the per-engine determinism chains into
// run-level invariants. Global, Host, and Planes are XOR folds of each
// engine's final chain value — XOR is commutative, so the fold is
// independent of engine attach order and therefore of worker count,
// even though the engines' NetIDs are not. Two runs of the same
// experiment at the same seed must match on every field.
type FingerprintSummary struct {
	Engines     int   `json:"engines"`
	EpochEvents int64 `json:"epoch_events"`
	Events      int64 `json:"events"` // total events folded, all engines
	// Global/Host and the plane hashes are 16-digit hex (see
	// obs.FormatHash).
	Global string          `json:"global"`
	Host   string          `json:"host"`
	Planes []obs.PlaneHash `json:"planes,omitempty"`
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

	// Attribution decomposes the run's FCTs into span components; Profile
	// is the event-loop flight recording.
	// Both are present only for runs that enabled them (pnetbench -spans),
	// so baselines from span-free runs stay byte-compatible.
	Attribution *AttributionSummary `json:"attribution,omitempty"`
	Profile     *ProfileSummary     `json:"profile,omitempty"`

	// Faults is present only for runs with fault activity (chaos
	// injection or blackholed packets) — absent for the fault-free runs
	// of older baselines, which keeps the schema backward compatible.
	Faults *FaultSummary `json:"faults,omitempty"`

	// Fingerprint is the run's determinism fingerprint, present only for
	// runs that enabled it (pnetbench -fingerprint).
	Fingerprint *FingerprintSummary `json:"fingerprint,omitempty"`
}

// Meta carries run identity that telemetry itself does not record.
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

// agg accumulates telemetry into a RunSummary; both construction paths
// (the live Aggregator, a JSONL stream through FromStream) feed the same
// aggregation, record by record.
type agg struct {
	fcts    []float64
	bytes   int64
	retrans int64
	util    obs.Histogram
	queue   obs.Histogram
	// drops and tx samples are cumulative per (net, link)/(net, plane);
	// keep the last value per key and sum at the end.
	linkDrops  map[[2]int64]int64
	linkBH     map[[2]int64]int64
	planeBytes map[[2]int64]int64
	engineNets map[int]bool // networks with an engine record: every sampled one
	events     uint64
	wallNs     int64
	runWallNs  int64
	simPs      int64
	solver     SolverSummary

	faultInjected, faultCleared, faultDetected int64
	detectLat, failoverLat, recovery, dipFrac  []float64

	// Latency attribution: exact integer-picosecond sums per (component,
	// plane) — commutative, so worker count cannot change them — plus the
	// per-flow spans retained for the tail re-aggregation.
	spanPs    map[[2]int64]int64
	spanFlows []spanFlow

	// Flight-recorder bins per (kind, plane): [events, wallNs].
	profBins    map[[2]int64][2]int64
	profEngines int
	profSimPs   int64 // profiled sim time, summed over engines
	profNets    map[int]bool

	// Determinism fingerprints: XOR folds of each engine's final chains
	// (commutative, so worker count cannot change them). The stream path
	// keeps the last checkpoint seen per net and folds at summary time.
	fpEngines int
	fpEpoch   int64
	fpEvents  int64
	fpGlobal  uint64
	fpHost    uint64
	fpPlanes  []uint64
	fpLast    map[int]obs.FingerprintRecord
}

func newAgg() *agg {
	return &agg{
		linkDrops:  map[[2]int64]int64{},
		linkBH:     map[[2]int64]int64{},
		planeBytes: map[[2]int64]int64{},
		engineNets: map[int]bool{},
		spanPs:     map[[2]int64]int64{},
		profBins:   map[[2]int64][2]int64{},
		profNets:   map[int]bool{},
		fpLast:     map[int]obs.FingerprintRecord{},
	}
}

// foldFP XORs one engine's final chain state into the run-level fold.
func (a *agg) foldFP(events int64, epoch int64, global, host uint64, planes []uint64) {
	a.fpEngines++
	a.fpEvents += events
	if epoch > a.fpEpoch {
		a.fpEpoch = epoch
	}
	a.fpGlobal ^= global
	a.fpHost ^= host
	for pl, h := range planes {
		for pl >= len(a.fpPlanes) {
			a.fpPlanes = append(a.fpPlanes, 0)
		}
		a.fpPlanes[pl] ^= h
	}
}

// addFingerprintSnapshot folds one engine's fingerprint state (the
// live path, Aggregator.Summarize). The final checkpoint carries the chains.
func (a *agg) addFingerprintSnapshot(snap obs.FingerprintSnapshot) {
	if len(snap.Checkpoints) == 0 {
		return
	}
	cp := snap.Checkpoints[len(snap.Checkpoints)-1]
	a.foldFP(cp.Events, snap.EpochEvents, cp.Global, cp.Host, cp.Planes)
}

// addFingerprintRecord folds one JSONL checkpoint (the stream path):
// checkpoints are cumulative, so only the last one per net counts.
// Records arrive in epoch order within a net, so last-write wins.
func (a *agg) addFingerprintRecord(r obs.FingerprintRecord) {
	a.fpLast[r.Net] = r
}

func (a *agg) addFault(r obs.FaultRecord) {
	switch r.Event {
	case "inject":
		a.faultInjected++
	case "clear":
		a.faultCleared++
	case "detect":
		a.faultDetected++
		if r.LatencySec > 0 {
			a.detectLat = append(a.detectLat, r.LatencySec)
		}
	case "failover":
		if r.LatencySec > 0 {
			a.failoverLat = append(a.failoverLat, r.LatencySec)
		}
	case "recover":
		if r.LatencySec > 0 {
			a.recovery = append(a.recovery, r.LatencySec)
		}
		if r.DipFrac > 0 {
			a.dipFrac = append(a.dipFrac, r.DipFrac)
		}
	}
}

func (a *agg) addFlow(f obs.FlowRecord) {
	a.fcts = append(a.fcts, f.FCT)
	a.bytes += f.Bytes
	a.retrans += f.Retransmits
	if len(f.Spans) > 0 {
		for _, sp := range f.Spans {
			ci, ok := sim.ParseSpanComponent(sp.Component)
			if !ok {
				continue // the reader rejects these; defensive for the live path
			}
			a.spanPs[[2]int64{int64(ci), int64(sp.Plane)}] += sp.Ps
		}
		a.spanFlows = append(a.spanFlows, spanFlow{fct: f.FCT, spans: f.Spans})
	}
}

// addProfileRecord folds one JSONL profile bin (the stream path).
func (a *agg) addProfileRecord(r obs.ProfileRecord) {
	ki, ok := sim.ParseEventKind(r.Kind)
	if !ok {
		return // the reader rejects these; defensive for direct callers
	}
	a.addProfileBin(ki, r.Plane, r.Events, r.WallNano)
	if !a.profNets[r.Net] {
		a.profNets[r.Net] = true
		a.profEngines++
		a.profSimPs += r.SimPs
	}
}

// addProfileSnapshot folds one engine's recorder state (the live path,
// Aggregator.Summarize).
func (a *agg) addProfileSnapshot(snap obs.ProfileSnapshot) {
	a.profEngines++
	a.profSimPs += int64(snap.SimTime)
	for _, bin := range snap.Bins {
		a.addProfileBin(bin.Kind, bin.Plane, bin.Events, bin.WallNs)
	}
}

func (a *agg) addProfileBin(kind sim.EventKind, plane int32, events, wallNs int64) {
	k := [2]int64{int64(kind), int64(plane)}
	b := a.profBins[k]
	b[0] += events
	b[1] += wallNs
	a.profBins[k] = b
}

func (a *agg) addSolver(r obs.SolverRecord) {
	a.solver.Calls++
	a.solver.Phases += int64(r.Phases)
	a.solver.Iterations += r.Iterations
	a.solver.Attempts += int64(r.Attempts)
	a.solver.WallSec += r.WallSec
}

func (a *agg) addLink(r obs.LinkRecord) {
	a.util.Observe(r.Util)
	a.queue.Observe(float64(r.QueueBytes))
	a.linkDrops[[2]int64{int64(r.Net), r.Link}] = r.Drops
	if r.Blackholed > 0 {
		a.linkBH[[2]int64{int64(r.Net), r.Link}] = r.Blackholed
	}
	if r.TPs > a.simPs {
		a.simPs = r.TPs
	}
}

func (a *agg) addPlane(r obs.PlaneRecord) {
	a.planeBytes[[2]int64{int64(r.Net), int64(r.Plane)}] = r.TxBytes
	if r.TPs > a.simPs {
		a.simPs = r.TPs
	}
}

func (a *agg) addEngine(r obs.EngineRecord) {
	a.engineNets[r.Net] = true
	a.events += r.Events
	a.wallNs += r.WallNano
	if r.TPs > a.simPs {
		a.simPs = r.TPs
	}
}

func (a *agg) summary(m Meta) RunSummary {
	s := RunSummary{
		SchemaVersion: SchemaVersion,
		Created:       m.Created,
		Exp:           m.Exp,
		Scale:         m.Scale,
		Seed:          m.Seed,
		Workers:       m.Workers,
		GOMAXPROCS:    m.GOMAXPROCS,
		Flows:         int64(len(a.fcts)),
		FlowBytes:     a.bytes,
		Retransmits:   a.retrans,
		FCT:           distFromSamples(a.fcts),
		LinkUtil:      distFromHist(&a.util),
		QueueBytes:    distFromHist(&a.queue),
		Solver:        a.solver,
	}

	for _, d := range a.linkDrops {
		s.Drops += d
	}

	var blackholed int64
	for _, b := range a.linkBH {
		blackholed += b
	}
	if a.faultInjected > 0 || a.faultDetected > 0 || blackholed > 0 {
		s.Faults = &FaultSummary{
			Injected:        a.faultInjected,
			Cleared:         a.faultCleared,
			Detected:        a.faultDetected,
			Blackholed:      blackholed,
			DetectLatency:   distFromSamples(a.detectLat),
			FailoverLatency: distFromSamples(a.failoverLat),
			Recovery:        distFromSamples(a.recovery),
			DipFrac:         distFromSamples(a.dipFrac),
		}
	}

	// Per-plane byte shares, merged across networks, sorted by plane.
	perPlane := map[int32]int64{}
	var total int64
	for key, b := range a.planeBytes {
		perPlane[int32(key[1])] += b
		total += b
	}
	planes := make([]int32, 0, len(perPlane))
	for p := range perPlane {
		planes = append(planes, p)
	}
	sort.Slice(planes, func(i, j int) bool { return planes[i] < planes[j] })
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
		Networks:   len(a.engineNets),
		Events:     a.events,
		WallSec:    float64(a.wallNs) / 1e9,
		SimSec:     float64(a.simPs) / 1e12,
		RunWallSec: float64(a.runWallNs) / 1e9,
	}
	if s.Engine.WallSec > 0 {
		s.Engine.EventsPerSec = float64(a.events) / s.Engine.WallSec
	}
	if s.Engine.SimSec > 0 {
		s.GoodputBps = float64(a.bytes) * 8 / s.Engine.SimSec
	}

	// Fold stream-path checkpoints in (XOR — order-free), then render.
	for _, r := range a.fpLast {
		g, _ := obs.ParseHash(r.Hash) // the reader validated these
		h, _ := obs.ParseHash(r.Host)
		planes := make([]uint64, 0, len(r.Planes))
		for _, p := range r.Planes {
			for int(p.Plane) >= len(planes) {
				planes = append(planes, 0)
			}
			v, _ := obs.ParseHash(p.Hash)
			planes[p.Plane] = v
		}
		a.foldFP(r.Events, r.EpochEvents, g, h, planes)
	}
	if a.fpEngines > 0 {
		fp := &FingerprintSummary{
			Engines:     a.fpEngines,
			EpochEvents: a.fpEpoch,
			Events:      a.fpEvents,
			Global:      obs.FormatHash(a.fpGlobal),
			Host:        obs.FormatHash(a.fpHost),
		}
		for pl, h := range a.fpPlanes {
			fp.Planes = append(fp.Planes, obs.PlaneHash{Plane: int32(pl), Hash: obs.FormatHash(h)})
		}
		s.Fingerprint = fp
	}

	s.Attribution = a.attributionSummary(s.FCT.P999)
	s.Profile = a.profileSummary()
	return s
}

// Aggregator is the live construction path for RunSummary: set it as the
// collector's Sink and every sample reduces on arrival, bounded memory
// however long the run. This is what `pnetbench -report` uses; `-exp
// all` takes tens of millions of link samples.
//
// An Aggregator accepts samples from concurrently-running networks:
// every reduction it performs (sums, per-(net,key) last-value maps,
// histogram buckets, max sim time) is commutative, so the summary it
// produces is independent of sample arrival order — and therefore of
// worker count.
type Aggregator struct {
	mu sync.Mutex
	a  *agg
}

// NewAggregator returns an empty aggregator.
func NewAggregator() *Aggregator { return &Aggregator{a: newAgg()} }

// Link implements obs.SampleSink.
func (x *Aggregator) Link(r obs.LinkRecord) {
	x.mu.Lock()
	x.a.addLink(r)
	x.mu.Unlock()
}

// Plane implements obs.SampleSink.
func (x *Aggregator) Plane(r obs.PlaneRecord) {
	x.mu.Lock()
	x.a.addPlane(r)
	x.mu.Unlock()
}

// Engine implements obs.SampleSink.
func (x *Aggregator) Engine(r obs.EngineRecord) {
	x.mu.Lock()
	x.a.addEngine(r)
	x.mu.Unlock()
}

// Summarize stops the collector's samplers (a network that never reached
// its first tick reports its one engine record then), folds the
// collector's flow, solver and fault records, profiles and fingerprints
// in, and returns the run summary. Call once, when the run is over and
// every producer has finished; before or after Collector.Close.
func (x *Aggregator) Summarize(c *obs.Collector, m Meta) RunSummary {
	for _, s := range c.Samplers() {
		s.Stop()
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	for _, f := range c.Flows {
		x.a.addFlow(f)
	}
	for _, r := range c.Solver {
		x.a.addSolver(r)
	}
	for _, r := range c.Faults {
		x.a.addFault(r)
	}
	for _, snap := range c.Profiles() {
		x.a.addProfileSnapshot(snap)
	}
	for _, snap := range c.Fingerprints() {
		x.a.addFingerprintSnapshot(snap)
	}
	x.a.runWallNs = c.RunWallNs()
	return x.a.summary(m)
}

// FromStream summarizes a run from a decoded JSONL metrics stream.
func FromStream(st *Stream, m Meta) RunSummary {
	a := newAgg()
	for _, f := range st.Flows {
		a.addFlow(f)
	}
	for _, r := range st.Solvers {
		a.addSolver(r)
	}
	for _, r := range st.Faults {
		a.addFault(r)
	}
	for _, r := range st.Links {
		a.addLink(r)
	}
	for _, r := range st.Planes {
		a.addPlane(r)
	}
	for _, r := range st.Engines {
		a.addEngine(r)
	}
	for _, r := range st.Profiles {
		a.addProfileRecord(r)
	}
	for _, r := range st.Fingerprints {
		a.addFingerprintRecord(r)
	}
	return a.summary(m)
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

func distFromHist(h *obs.Histogram) Dist {
	if h.Count() == 0 {
		return Dist{}
	}
	return Dist{
		Count: h.Count(),
		Mean:  h.Mean(),
		Min:   h.Min(),
		P50:   h.Quantile(0.50),
		P99:   h.Quantile(0.99),
		P999:  h.Quantile(0.999),
		Max:   h.Max(),
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
	if p := s.Profile; p != nil {
		fmt.Fprintf(&b, "profile: %d events, host boundary %.1f%% (pnetstat profile for detail)\n",
			p.Events, p.HostFrac*100)
	}
	if fp := s.Fingerprint; fp != nil {
		fmt.Fprintf(&b, "fingerprint: global=%s host=%s (%d events, %d engines, epoch %d)\n",
			fp.Global, fp.Host, fp.Events, fp.Engines, fp.EpochEvents)
	}
	if f := s.Faults; f != nil {
		fmt.Fprintf(&b, "faults: %d injected, %d cleared, %d detected; %d blackholed",
			f.Injected, f.Cleared, f.Detected, f.Blackholed)
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
