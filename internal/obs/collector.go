package obs

import (
	"bufio"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pnet/internal/sim"
)

// FlowRecord and SolverRecord (the in-memory record types accumulated
// here) are defined with the rest of the JSONL schema in schema.go.

// Collector bundles the telemetry of one harness run: a metric registry,
// optional JSONL streams, and per-network samplers/tracers. Every method
// is nil-safe so instrumented code needs no guards of its own.
//
// A Collector is safe for concurrent producers: parallel experiment
// cells attach networks and record flows/solver calls/faults against one
// shared instance. Record slices then accumulate in completion order —
// nondeterministic under workers > 1 — but every consumer (the registry,
// report summarization) aggregates commutatively, so derived results do
// not depend on worker count. The exported Flows/Solver/Faults fields
// must only be read directly after all producers have finished.
type Collector struct {
	// Reg aggregates counters and histograms across everything the
	// collector sees (flows, solver calls, attach events).
	Reg *Registry
	// Interval is the sampling period in sim time; zero selects 10 µs.
	Interval sim.Time
	// AlwaysSample starts a sampler on every attached network even when
	// no metrics stream is set, so samples accumulate for post-run
	// summarization (internal/report) without the JSONL round-trip.
	AlwaysSample bool
	// Sink, when non-nil, receives every sample as it is taken — the
	// streaming aggregation path. Must be set before AttachNetwork.
	Sink SampleSink
	// DropSamples stops samplers from retaining their in-memory series;
	// set it alongside Sink to keep memory bounded on long runs whose
	// consumer aggregates on the fly.
	DropSamples bool
	// Spans enables latency-attribution span recording on every attached
	// network; completed flows then carry their FCT decomposition
	// (FlowRecord.Spans). Must be set before AttachNetwork.
	Spans bool
	// Profile attaches an event-loop flight recorder to every attached
	// engine; Close writes the per-(kind, plane) bins as profile records.
	// Must be set before AttachNetwork.
	Profile bool
	// Fingerprint attaches a determinism fingerprinter to every attached
	// engine; Close writes its epoch checkpoints as fingerprint records.
	// Must be set before AttachNetwork.
	Fingerprint bool
	// FingerprintEpoch overrides the checkpoint cadence in events; zero
	// selects sim.DefaultFingerprintEpoch. Must be set before
	// AttachNetwork.
	FingerprintEpoch int64
	// TraceFlows, when non-empty, restricts the packet-trace stream to
	// the listed flow IDs. Events for other flows return before a line is
	// built — filtered tracing stays allocation-free.
	TraceFlows []int64

	// Flows, Solver, and Faults accumulate records in memory for
	// programmatic use (the JSONL streams carry the same data).
	Flows  []FlowRecord
	Solver []SolverRecord
	Faults []FaultRecord

	mu      sync.Mutex // guards the record slices and attach bookkeeping
	traceMu sync.Mutex // serializes all JSONLSinks sharing tw

	// runWallNs accumulates wall time spent inside engine runs
	// (workload.Driver.RunUntil), summed across sweep cells. Atomic:
	// parallel cells add concurrently.
	runWallNs atomic.Int64
	mw        *MetricsWriter
	jw        *MetricsWriter // fingerprint journal stream, if any
	tw        *bufio.Writer  // shared by every network's JSONLSink
	samplers  []*Sampler
	sinks     []*JSONLSink
	profiles  []profileEntry
	fps       []fingerprintEntry
	nets      int
}

// fingerprintEntry pairs a fingerprinter with the NetID it was attached
// under, so checkpoint records carry the same Net as the engine's
// samples in the metrics stream.
type fingerprintEntry struct {
	fp  *sim.Fingerprinter
	net int
}

// FingerprintSnapshot is one engine's fingerprint state: its epoch
// checkpoints (including the trailing partial one) and the cadence.
type FingerprintSnapshot struct {
	NetID       int
	EpochEvents int64
	Checkpoints []sim.FingerprintCheckpoint
}

// profileEntry pairs a flight recorder with its engine. Recorder IDs are
// a sequence of their own, independent of network attach order, so
// profile-only attachments never shift the NetIDs of the metrics stream.
type profileEntry struct {
	rec *sim.FlightRecorder
	eng *sim.Engine
}

// ProfileSnapshot is one engine's flight-recorder state: the non-empty
// (kind, plane) bins and the sim time it had reached when snapshotted
// (the profiled duration).
type ProfileSnapshot struct {
	NetID   int
	SimTime sim.Time
	Bins    []sim.ProfileBin
}

// NewCollector returns a collector with a fresh registry and no streams.
func NewCollector() *Collector { return &Collector{Reg: NewRegistry()} }

// StreamMetrics mirrors samples, flow/solver records, and the final
// metric snapshot to w as JSONL.
func (c *Collector) StreamMetrics(w io.Writer) { c.mw = NewMetricsWriter(w) }

// StreamTrace streams packet lifecycle events of every attached network
// to w as JSONL.
func (c *Collector) StreamTrace(w io.Writer) { c.tw = bufio.NewWriterSize(w, 1<<16) }

// StreamFingerprintJournal streams every folded event of every attached
// fingerprinter to w as fpev JSONL records — the heavyweight divergence-
// debugging mode. Lines from different engines interleave in completion
// order, so journal runs meant for event-level comparison should use
// workers=1 (per-engine order is deterministic either way; `pnetstat
// divergence` groups by net before comparing). Must be called before
// AttachNetwork, and only with Fingerprint set.
func (c *Collector) StreamFingerprintJournal(w io.Writer) { c.jw = NewMetricsWriter(w) }

// MetricsLines returns the number of metric records written so far.
func (c *Collector) MetricsLines() int64 {
	if c == nil || c.mw == nil {
		return 0
	}
	return c.mw.Count()
}

// TraceEvents returns the number of trace lines written so far.
func (c *Collector) TraceEvents() int64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	sinks := c.sinks
	c.mu.Unlock()
	var n int64
	for _, s := range sinks {
		n += s.EventCount()
	}
	return n
}

func (c *Collector) interval() sim.Time {
	if c.Interval > 0 {
		return c.Interval
	}
	return 10 * sim.Microsecond
}

// AttachNetwork instruments one simulation: the network's tracer is
// pointed at the trace stream (if any) and a sampler is started on the
// engine (if a metrics stream is set). Safe to call on a nil collector.
// It returns the sampler, or nil if none was started.
func (c *Collector) AttachNetwork(eng *sim.Engine, net *sim.Network) *Sampler {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	id := c.nets
	c.nets++
	var sink *JSONLSink
	if c.tw != nil {
		sink = NewJSONLSink(c.tw, eng, net.G)
		sink.mu = &c.traceMu // every sink shares tw; writes must serialize
		sink.only = c.TraceFlows
		c.sinks = append(c.sinks, sink)
	}
	c.mu.Unlock()
	c.Reg.Counter("networks.attached").Inc()
	if sink != nil {
		net.Tracer = sink
	}
	if c.Spans {
		net.EnableSpans()
	}
	if c.Profile {
		c.AttachProfile(eng)
	}
	if c.Fingerprint {
		fp := sim.NewFingerprinter(c.FingerprintEpoch)
		if c.jw != nil {
			fp.Journal = c.journalFunc(id)
		}
		eng.Fingerprint = fp
		c.mu.Lock()
		c.fps = append(c.fps, fingerprintEntry{fp: fp, net: id})
		c.mu.Unlock()
	}
	var sampler *Sampler
	if c.mw != nil || c.AlwaysSample || c.Sink != nil {
		sampler = NewSampler(eng, net, c.interval())
		sampler.NetID = id
		sampler.stream = c.mw
		sampler.sink = c.Sink
		sampler.retain = !c.DropSamples
		sampler.Start()
		c.mu.Lock()
		c.samplers = append(c.samplers, sampler)
		c.mu.Unlock()
	}
	return sampler
}

// AttachProfile hooks an event-loop flight recorder onto one engine and
// nothing else: no sampler, no tracer, no registry traffic. It exists so
// a profiling companion can measure an otherwise-uninstrumented
// simulation without perturbing any deterministic output of the run
// (record streams, counters, NetID assignment all stay untouched).
func (c *Collector) AttachProfile(eng *sim.Engine) *sim.FlightRecorder {
	if c == nil {
		return nil
	}
	rec := sim.NewFlightRecorder()
	eng.Recorder = rec
	c.mu.Lock()
	c.profiles = append(c.profiles, profileEntry{rec: rec, eng: eng})
	c.mu.Unlock()
	return rec
}

// Profiles snapshots every attached flight recorder, in attach order.
// Call it only after the profiled engines have stopped.
func (c *Collector) Profiles() []ProfileSnapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]ProfileSnapshot, 0, len(c.profiles))
	for i, e := range c.profiles {
		out = append(out, ProfileSnapshot{NetID: i, SimTime: e.eng.Now(), Bins: e.rec.Snapshot()})
	}
	return out
}

// journalFunc builds the per-engine journal hook: each folded event
// becomes one fpev line on the journal stream. The closure allocates
// once per engine at attach time; the per-event path allocates only what
// encoding/json needs (journal mode is explicitly not the cheap path).
func (c *Collector) journalFunc(netID int) func(sim.FingerprintJournalEntry) {
	return func(e sim.FingerprintJournalEntry) {
		c.jw.write(FingerprintEventRecord{
			Type: KindFPEvent, Net: netID, Epoch: e.Epoch, I: e.Index,
			TPs: int64(e.T), Kind: e.Kind.String(), Plane: e.Plane,
			Link: e.Link, Flow: e.Flow, Seq: e.Seq, Size: e.Size,
			Hash: FormatHash(e.Hash),
		})
	}
}

// Fingerprints snapshots every attached fingerprinter. Call it only
// after the fingerprinted engines have stopped.
func (c *Collector) Fingerprints() []FingerprintSnapshot {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]FingerprintSnapshot, 0, len(c.fps))
	for _, e := range c.fps {
		out = append(out, FingerprintSnapshot{
			NetID: e.net, EpochEvents: e.fp.EpochEvents(), Checkpoints: e.fp.Checkpoints(),
		})
	}
	return out
}

// Samplers returns the samplers started so far, one per attached
// network, in attach order (so index matches the NetID of the stream).
func (c *Collector) Samplers() []*Sampler {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.samplers
	sort.Slice(out, func(i, j int) bool { return out[i].NetID < out[j].NetID })
	return out
}

// EffectiveInterval reports the sampling period attached networks use.
func (c *Collector) EffectiveInterval() sim.Time {
	if c == nil {
		return 0
	}
	return c.interval()
}

// RecordFlow accepts one completed flow.
func (c *Collector) RecordFlow(r FlowRecord) {
	if c == nil {
		return
	}
	r.Type = "flow"
	c.mu.Lock()
	c.Flows = append(c.Flows, r)
	c.mu.Unlock()
	c.Reg.Counter("flows.completed").Inc()
	c.Reg.Counter("flows.bytes").Add(r.Bytes)
	c.Reg.Counter("flows.retransmits").Add(r.Retransmits)
	if r.FCT > 0 {
		c.Reg.Histogram("flow.fct_s").Observe(r.FCT)
	}
	if c.mw != nil {
		c.mw.write(r)
	}
}

// RecordSolver accepts one solver invocation.
func (c *Collector) RecordSolver(r SolverRecord) {
	if c == nil {
		return
	}
	r.Type = "solver"
	c.mu.Lock()
	c.Solver = append(c.Solver, r)
	c.mu.Unlock()
	c.Reg.Counter("solver.calls").Inc()
	c.Reg.Counter("solver.phases").Add(int64(r.Phases))
	c.Reg.Counter("solver.iterations").Add(r.Iterations)
	if r.WallSec > 0 {
		c.Reg.Histogram("solver.wall_s").Observe(r.WallSec)
	}
	if c.mw != nil {
		c.mw.write(r)
	}
}

// RecordFault accepts one fault lifecycle event (injection, clearance,
// detection, failover, recovery).
func (c *Collector) RecordFault(r FaultRecord) {
	if c == nil {
		return
	}
	r.Type = KindFault
	c.mu.Lock()
	c.Faults = append(c.Faults, r)
	c.mu.Unlock()
	switch r.Event {
	case "inject":
		c.Reg.Counter("faults.injected").Inc()
	case "clear":
		c.Reg.Counter("faults.cleared").Inc()
	case "detect":
		c.Reg.Counter("faults.detected").Inc()
		if r.LatencySec > 0 {
			c.Reg.Histogram("fault.detect_latency_s").Observe(r.LatencySec)
		}
	case "failover":
		if r.LatencySec > 0 {
			c.Reg.Histogram("fault.failover_latency_s").Observe(r.LatencySec)
		}
	case "recover":
		if r.LatencySec > 0 {
			c.Reg.Histogram("fault.recovery_s").Observe(r.LatencySec)
		}
		if r.DipFrac > 0 {
			c.Reg.Histogram("fault.dip_frac").Observe(r.DipFrac)
		}
	}
	if c.mw != nil {
		c.mw.write(r)
	}
}

// FCTs returns the recorded flow completion times in seconds.
func (c *Collector) FCTs() []float64 {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]float64, 0, len(c.Flows))
	for _, f := range c.Flows {
		out = append(out, f.FCT)
	}
	return out
}

// Merge folds src into c: in-memory records are appended and registries
// merged. It is the fan-in step for runs that give each parallel cell a
// private collector (for deterministic per-cell record order) and
// combine them afterwards; merging in cell-index order makes even the
// merged record order deterministic. Streams and samplers are not
// carried over — merge before Close, and only into a collector whose
// producers are quiescent.
func (c *Collector) Merge(src *Collector) {
	if c == nil || src == nil || c == src {
		return
	}
	src.mu.Lock()
	flows := append([]FlowRecord(nil), src.Flows...)
	solver := append([]SolverRecord(nil), src.Solver...)
	faults := append([]FaultRecord(nil), src.Faults...)
	profiles := append([]profileEntry(nil), src.profiles...)
	fps := append([]fingerprintEntry(nil), src.fps...)
	src.mu.Unlock()
	c.mu.Lock()
	c.Flows = append(c.Flows, flows...)
	c.Solver = append(c.Solver, solver...)
	c.Faults = append(c.Faults, faults...)
	c.profiles = append(c.profiles, profiles...)
	for _, e := range fps {
		// Re-key under this collector's NetID sequence: per-cell collectors
		// each start at zero, so carried IDs would collide.
		e.net = c.nets
		c.nets++
		c.fps = append(c.fps, e)
	}
	c.mu.Unlock()
	c.runWallNs.Add(src.runWallNs.Load())
	c.Reg.Merge(src.Reg)
}

// AddRunWall accumulates wall time spent inside an engine run. Safe from
// concurrent sweep cells.
func (c *Collector) AddRunWall(d time.Duration) { c.runWallNs.Add(int64(d)) }

// RunWallNs reports the accumulated engine-run wall time in nanoseconds.
func (c *Collector) RunWallNs() int64 { return c.runWallNs.Load() }

// Close stops samplers, dumps the registry snapshot to the metrics
// stream, and flushes both streams. It returns the first error any
// stream hit.
func (c *Collector) Close() error {
	if c == nil {
		return nil
	}
	var first error
	c.mu.Lock()
	samplers := c.samplers
	sinks := c.sinks
	c.mu.Unlock()
	for _, s := range samplers {
		s.Stop()
	}
	if c.mw != nil {
		for _, snap := range c.Profiles() {
			for _, b := range snap.Bins {
				c.mw.write(ProfileRecord{
					Type: KindProfile, Net: snap.NetID, Kind: b.Kind.String(), Plane: b.Plane,
					Events: b.Events, WallNano: b.WallNs, SimPs: int64(snap.SimTime),
				})
			}
		}
		for _, snap := range c.Fingerprints() {
			for _, cp := range snap.Checkpoints {
				r := FingerprintRecord{
					Type: KindFingerprint, Net: snap.NetID, Epoch: cp.Epoch,
					Events: cp.Events, TPs: int64(cp.T), EpochEvents: snap.EpochEvents,
					Hash: FormatHash(cp.Global), Host: FormatHash(cp.Host), Final: cp.Partial,
				}
				for pl, h := range cp.Planes {
					r.Planes = append(r.Planes, PlaneHash{Plane: int32(pl), Hash: FormatHash(h)})
				}
				c.mw.write(r)
			}
		}
		for _, m := range c.Reg.Snapshot() {
			c.mw.write(m)
		}
		if err := c.mw.Flush(); err != nil && first == nil {
			first = err
		}
	}
	if c.jw != nil {
		if err := c.jw.Flush(); err != nil && first == nil {
			first = err
		}
	}
	for _, s := range sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
