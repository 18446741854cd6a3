package obs

import (
	"io"
	"sync"

	"pnet/internal/sim"
)

// Collector bundles the telemetry of one harness run: the optional JSONL
// metrics stream and, per attached network, a sampler and a
// fingerprinter. Every method but StreamMetrics is nil-safe, so
// instrumented code needs no guards of its own.
//
// Every record the run produces takes one road: the producer hands it to
// the collector's one sink (out: the metrics stream, Sink, or a Tee of
// the two) and the collector keeps nothing. Samplers emit link, plane and
// engine records as they tick, fingerprinters their checkpoints as each
// epoch closes; RecordFlow, RecordSolver and RecordFault pass theirs on
// as they arrive; Close emits each engine's trailing partial checkpoint.
// All records of one engine carry the NetID AttachNetwork gave it.
//
// A Collector is safe for concurrent producers: parallel experiment
// cells attach networks and record flows/solver calls/faults against one
// shared instance. Records then reach the sink in completion order,
// nondeterministic under workers > 1, but report summarization aggregates
// commutatively, so derived results do not depend on worker count.
type Collector struct {
	// Sink, when non-nil, receives every record as it is produced (the
	// live aggregation path, internal/report's Aggregator). Must be set
	// before the first record or AttachNetwork.
	Sink Sink
	// Spans enables latency-attribution span recording on every attached
	// network, so completed flows carry their FCT decomposition
	// (FlowRecord.Spans). Must be set before AttachNetwork.
	Spans bool
	// Fingerprint attaches a determinism fingerprinter to every attached
	// engine; each epoch checkpoint becomes a fingerprint record as the
	// epoch closes. Must be set before AttachNetwork.
	Fingerprint bool
	// FingerprintEpoch overrides the checkpoint cadence in events; zero
	// selects sim.DefaultFingerprintEpoch. Must be set before
	// AttachNetwork.
	FingerprintEpoch int64

	mu      sync.Mutex // guards nets and nextID
	mw      *MetricsWriter
	teeOnce sync.Once
	tee     Sink // Tee(mw, Sink), when both are set
	nets    []attachment
	nextID  int
}

// attachment is what AttachNetwork hooked onto one engine, under the
// NetID that every record of that engine carries. Unused hooks are nil.
type attachment struct {
	id      int
	sampler *Sampler
	fp      *sim.Fingerprinter
}

// sampleInterval is the sim-time period of every attached network's
// sampler (its first ticks; see Sampler for the decimation).
const sampleInterval = 10 * sim.Microsecond

// NewCollector returns a collector with no streams.
func NewCollector() *Collector { return &Collector{} }

// StreamMetrics streams every record — samples, flow/solver/fault
// records and fingerprint checkpoints — to w as JSONL.
func (c *Collector) StreamMetrics(w io.Writer) { c.mw = NewMetricsWriter(w) }

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

// AttachNetwork instruments one simulation under the next NetID: spans
// are switched on as configured, and, if a metrics stream or Sink is set,
// the fingerprinter's checkpoints are pointed at it and a sampler is
// started on the engine. It returns the NetID, which records about this
// network made elsewhere (faults) must carry; a nil collector attaches
// nothing and returns -1.
func (c *Collector) AttachNetwork(eng *sim.Engine, net *sim.Network) int {
	if c == nil {
		return -1
	}
	c.mu.Lock()
	a := attachment{id: c.nextID}
	c.nextID++
	c.mu.Unlock()
	if c.Spans {
		net.EnableSpans()
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
		a.sampler = NewSampler(eng, net, sampleInterval, to)
		a.sampler.NetID = a.id
		a.sampler.Start()
	}
	c.mu.Lock()
	c.nets = append(c.nets, a)
	c.mu.Unlock()
	return a.id
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

// RecordFault passes one fault lifecycle event (injection, detection,
// failover, recovery) on to the sink.
func (c *Collector) RecordFault(r FaultRecord) {
	if to := c.out(); to != nil {
		r.Type = KindFault
		to.Fault(r)
	}
}

// Close ends the run: per network, it stops the sampler (a network that
// never reached its first tick reports its one engine record then) and
// emits the engine's trailing partial fingerprint checkpoint to the sink;
// then it flushes the metrics stream and returns the first error it hit.
// Call it once, when every engine has stopped; a summary is complete only
// after it.
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
		if to == nil || n.fp == nil {
			continue
		}
		if cp, ok := n.fp.Partial(); ok {
			to.Fingerprint(CheckpointRecord(n.id, n.fp.EpochEvents(), cp))
		}
	}
	if c.mw != nil {
		return c.mw.Flush()
	}
	return nil
}
