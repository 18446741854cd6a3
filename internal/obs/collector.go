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

// Collector bundles the telemetry of one harness run: optional JSONL
// streams, in-memory flow/solver/fault records, and per-network
// samplers, tracers, flight recorders and fingerprinters. Every method is
// nil-safe so instrumented code needs no guards of its own.
//
// Each sampler hands its records to the one sink AttachNetwork chose
// (SampleSink); flow, solver and fault records go to the metrics stream
// as they arrive and stay in the slices below for whoever summarizes the
// run.
//
// A Collector is safe for concurrent producers: parallel experiment
// cells attach networks and record flows/solver calls/faults against one
// shared instance. Record slices then accumulate in completion order —
// nondeterministic under workers > 1 — but report summarization
// aggregates commutatively, so derived results do not depend on worker
// count. The exported Flows/Solver/Faults fields must only be read
// directly after all producers have finished.
type Collector struct {
	// Interval is the sampling period in sim time; zero selects 10 µs.
	Interval sim.Time
	// Sink, when non-nil, receives every sample as it is taken (the live
	// aggregation path, internal/report's Aggregator). Must be set before
	// AttachNetwork.
	Sink SampleSink
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

// NewCollector returns a collector with no streams.
func NewCollector() *Collector { return &Collector{} }

// StreamMetrics streams samples, flow/solver/fault records and, at Close,
// profile bins and fingerprint checkpoints to w as JSONL.
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

func (c *Collector) interval() sim.Time {
	if c.Interval > 0 {
		return c.Interval
	}
	return 10 * sim.Microsecond
}

// sampleSink picks the one destination of every sample: the metrics
// stream, Sink, both through a tee, or nil when neither is set.
func (c *Collector) sampleSink() SampleSink {
	switch {
	case c.mw != nil && c.Sink != nil:
		return tee{c.mw, c.Sink}
	case c.mw != nil:
		return c.mw
	}
	return c.Sink
}

// AttachNetwork instruments one simulation: the network's tracer is
// pointed at the trace stream (if any) and a sampler is started on the
// engine (if a metrics stream or Sink is set). Safe to call on a nil
// collector. It returns the sampler, or nil if none was started.
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
	if to := c.sampleSink(); to != nil {
		sampler = NewSampler(eng, net, c.interval(), to)
		sampler.NetID = id
		sampler.Start()
		c.mu.Lock()
		c.samplers = append(c.samplers, sampler)
		c.mu.Unlock()
	}
	return sampler
}

// AttachProfile hooks an event-loop flight recorder onto one engine and
// nothing else: no sampler, no tracer. It exists so a profiling
// companion can measure an otherwise-uninstrumented simulation without
// perturbing any deterministic output of the run (record streams and
// NetID assignment stay untouched).
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
	if c.mw != nil {
		c.mw.write(r)
	}
}

// AddRunWall accumulates wall time spent inside an engine run. Safe from
// concurrent sweep cells.
func (c *Collector) AddRunWall(d time.Duration) { c.runWallNs.Add(int64(d)) }

// RunWallNs reports the accumulated engine-run wall time in nanoseconds.
func (c *Collector) RunWallNs() int64 { return c.runWallNs.Load() }

// Close stops samplers, writes the profile bins and fingerprint
// checkpoints to the metrics stream, and flushes every stream. It
// returns the first error any stream hit.
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
