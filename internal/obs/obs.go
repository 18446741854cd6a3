// Package obs is the simulator's telemetry layer, the producing half:
// Sink, one typed method per record kind, which every record of a run is
// handed to and nothing else (sink.go); a periodic Sampler that reads
// per-link, per-plane and engine state from a running simulation
// (sampler.go); the JSONL metrics writer, itself a Sink and the one
// writer of every kind, packet events included (jsonl.go); the record
// shapes both ends share (schema.go); and a Collector that bundles them
// for the experiment harness, installs a packet tracer per network when
// asked and retains no record (collector.go). The consuming half,
// internal/report, decodes a file back into a Sink and reduces records
// into summaries.
//
// The paper's §7 treats per-plane monitoring as a first-class concern of
// P-Nets, and every figure in its evaluation is a time series or a
// distribution. This package makes those observable while a simulation
// runs instead of reconstructable only from final tables.
//
// Everything here is stdlib-only. Each sim engine remains single-threaded,
// but the parallel sweep harness runs many engines at once against one
// shared Collector, so everything that is shared is safe for concurrent
// producers: the collector's attach bookkeeping and the metrics writer
// each carry a mutex. All hooks are nil-safe: a nil *Collector
// accepts records and does nothing (StreamMetrics aside), and an
// unattached network pays sim.Network's nil-Tracer branch plus
// queue.touch's moved-flag test on every transmission, drop and blackhole.
package obs
