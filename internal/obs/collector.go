package obs

import (
	"bufio"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"pnet/internal/sim"
)

// Collector bundles the telemetry of one harness run: the optional JSONL
// streams and, per attached network, a sampler, tracer, flight recorder
// and fingerprinter. Every method but the Stream* setup calls is nil-safe,
// so instrumented code needs no guards of its own.
//
// Every record the run produces takes one road: the producer hands it to
// the collector's one sink (out: the metrics stream, Sink, or a Tee of
// the two) and the collector keeps nothing. Samplers emit link, plane and
// engine records as they tick, fingerprinters their checkpoints as each
// epoch closes; RecordFlow, RecordSolver and RecordFault pass theirs on
// as they arrive; Close emits each engine's profile bins and trailing
// partial checkpoint. All records of one engine carry the NetID
// AttachNetwork gave it.
//
// A Collector is safe for concurrent producers: parallel experiment
// cells attach networks and record flows/solver calls/faults against one
// shared instance. Records then reach the sink in completion order,
// nondeterministic under workers > 1, but report summarization aggregates
// commutatively, so derived results do not depend on worker count.
type Collector struct {
	// Interval is the sampling period in sim time; zero selects 10 µs.
	Interval sim.Time
	// Sink, when non-nil, receives every record as it is produced (the
	// live aggregation path, internal/report's Aggregator). Must be set
	// before the first record or AttachNetwork.
	Sink Sink
	// Spans enables latency-attribution span recording on every attached
	// network, so completed flows carry their FCT decomposition
	// (FlowRecord.Spans), and attaches an event-loop flight recorder to
	// every attached engine, whose per-(kind, plane) bins Close emits as
	// profile records. Must be set before AttachNetwork.
	Spans bool
	// Fingerprint attaches a determinism fingerprinter to every attached
	// engine; each epoch checkpoint becomes a fingerprint record as the
	// epoch closes. Must be set before AttachNetwork.
	Fingerprint bool
	// FingerprintEpoch overrides the checkpoint cadence in events; zero
	// selects sim.DefaultFingerprintEpoch. Must be set before
	// AttachNetwork.
	FingerprintEpoch int64
	// TraceFlows, when non-empty, restricts the packet-trace stream to
	// the listed flow IDs. Events for other flows return before a line is
	// built — filtered tracing stays allocation-free.
	TraceFlows []int64

	mu      sync.Mutex // guards nets and nextID
	traceMu sync.Mutex // serializes all JSONLSinks sharing tw

	// runWallNs accumulates wall time spent inside engine runs
	// (workload.Driver.RunUntil), summed across sweep cells. Atomic:
	// parallel cells add concurrently.
	runWallNs atomic.Int64
	mw        *MetricsWriter
	teeOnce   sync.Once
	tee       Sink          // Tee(mw, Sink), when both are set
	tw        *bufio.Writer // shared by every network's JSONLSink
	nets      []attachment
	nextID    int
}

// attachment is what AttachNetwork hooked onto one engine, under the
// NetID that every record of that engine carries. Unused hooks are nil.
type attachment struct {
	id      int
	eng     *sim.Engine
	sampler *Sampler
	trace   *JSONLSink
	rec     *sim.FlightRecorder
	fp      *sim.Fingerprinter
}

// NewCollector returns a collector with no streams.
func NewCollector() *Collector { return &Collector{} }

// StreamMetrics streams samples, flow/solver/fault records, fingerprint
// checkpoints and, at Close, profile bins to w as JSONL.
func (c *Collector) StreamMetrics(w io.Writer) { c.mw = NewMetricsWriter(w) }

// StreamTrace streams packet lifecycle events of every attached network
// to w as JSONL.
func (c *Collector) StreamTrace(w io.Writer) { c.tw = bufio.NewWriterSize(w, 1<<16) }

func (c *Collector) interval() sim.Time {
	if c.Interval > 0 {
		return c.Interval
	}
	return 10 * sim.Microsecond
}

// out is the one destination of every record: the metrics stream, Sink,
// both through a Tee (the stream first, so the file is in emission
// order), or nil when neither is set. The Tee is built once, at the
// first attach or record that needs it, not per record.
func (c *Collector) out() Sink {
	switch {
	case c == nil:
		return nil
	case c.mw != nil && c.Sink != nil:
		c.teeOnce.Do(func() { c.tee = Tee(c.mw, c.Sink) })
		return c.tee
	case c.mw != nil:
		return c.mw
	}
	return c.Sink
}

// AttachNetwork instruments one simulation under the next NetID: the
// network's tracer is pointed at the trace stream (if any), spans, the
// flight recorder and the fingerprinter are switched on as configured,
// and, if a metrics stream or Sink is set, the fingerprinter's
// checkpoints are pointed at it and a sampler is started on the engine.
// Safe to call on a nil collector. It returns the sampler, or nil if none
// was started.
func (c *Collector) AttachNetwork(eng *sim.Engine, net *sim.Network) *Sampler {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	a := attachment{id: c.nextID, eng: eng}
	c.nextID++
	c.mu.Unlock()
	if c.tw != nil {
		a.trace = NewJSONLSink(c.tw, eng, net.G)
		a.trace.mu = &c.traceMu // every sink shares tw; writes must serialize
		a.trace.only = c.TraceFlows
		net.Tracer = a.trace
	}
	if c.Spans {
		net.EnableSpans()
		a.rec = sim.NewFlightRecorder()
		eng.Recorder = a.rec
	}
	to := c.out()
	if c.Fingerprint {
		a.fp = sim.NewFingerprinter(c.FingerprintEpoch)
		if to != nil {
			id, epoch := a.id, a.fp.EpochEvents()
			a.fp.OnCheckpoint = func(cp sim.FingerprintCheckpoint) {
				to.Fingerprint(CheckpointRecord(id, epoch, cp))
			}
		}
		eng.Fingerprint = a.fp
	}
	if to != nil {
		a.sampler = NewSampler(eng, net, c.interval(), to)
		a.sampler.NetID = a.id
		a.sampler.Start()
	}
	c.mu.Lock()
	c.nets = append(c.nets, a)
	c.mu.Unlock()
	return a.sampler
}

// EffectiveInterval reports the sampling period attached networks use.
func (c *Collector) EffectiveInterval() sim.Time {
	if c == nil {
		return 0
	}
	return c.interval()
}

// RecordFlow passes one completed flow on to the sink.
func (c *Collector) RecordFlow(r FlowRecord) {
	if to := c.out(); to != nil {
		r.Type = KindFlow
		to.Flow(r)
	}
}

// RecordSolver passes one solver invocation on to the sink.
func (c *Collector) RecordSolver(r SolverRecord) {
	if to := c.out(); to != nil {
		r.Type = KindSolver
		to.Solver(r)
	}
}

// RecordFault passes one fault lifecycle event (injection, clearance,
// detection, failover, recovery) on to the sink.
func (c *Collector) RecordFault(r FaultRecord) {
	if to := c.out(); to != nil {
		r.Type = KindFault
		to.Fault(r)
	}
}

// AddRunWall accumulates wall time spent inside an engine run. Safe from
// concurrent sweep cells.
func (c *Collector) AddRunWall(d time.Duration) {
	if c != nil {
		c.runWallNs.Add(int64(d))
	}
}

// RunWallNs reports the accumulated engine-run wall time in nanoseconds.
func (c *Collector) RunWallNs() int64 {
	if c == nil {
		return 0
	}
	return c.runWallNs.Load()
}

// Close ends the run: per network, it stops the sampler (a network that
// never reached its first tick reports its one engine record then) and
// emits the engine's profile bins and trailing partial fingerprint
// checkpoint to the sink; then it flushes every stream. It returns the
// first error any stream hit. Call it once, when every engine has
// stopped; a summary is complete only after it.
func (c *Collector) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	nets := c.nets
	c.mu.Unlock()
	to := c.out()
	for _, n := range nets {
		if n.sampler != nil {
			n.sampler.Stop()
		}
		if to == nil {
			continue
		}
		if n.rec != nil {
			for _, b := range n.rec.Snapshot() {
				to.Profile(ProfileRecord{
					Type: KindProfile, Net: n.id, Kind: b.Kind.String(), Plane: b.Plane,
					Events: b.Events, WallNano: b.WallNs, SimPs: int64(n.eng.Now()),
				})
			}
		}
		if n.fp != nil {
			if cp, ok := n.fp.Partial(); ok {
				to.Fingerprint(CheckpointRecord(n.id, n.fp.EpochEvents(), cp))
			}
		}
	}
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if c.mw != nil {
		keep(c.mw.Flush())
	}
	for _, n := range nets {
		if n.trace != nil {
			keep(n.trace.Flush())
		}
	}
	return first
}
