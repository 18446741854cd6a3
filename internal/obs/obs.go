// Package obs is the simulator's telemetry layer, the producing half:
// Sink, one typed method per record kind, which every record of a run is
// handed to and nothing else (sink.go); a periodic Sampler that reads
// per-link, per-plane and engine state from a running simulation
// (sampler.go); the JSONL metrics writer, itself a Sink and the one
// writer of every kind (jsonl.go); the record shapes both ends share
// (schema.go); and a Collector that bundles them for the experiment
// harness, attaches a sampler and a fingerprinter per network and retains
// no record (collector.go). The per-event view of a run is the
// fingerprint at -fingerprint-epoch 1: one checkpoint per fired event,
// naming its time, kind, plane, link, flow, seq and size. The consuming
// half, internal/report, decodes a file back into a Sink and reduces
// records into summaries.
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
// unattached network pays the engine's nil-Fingerprint branch on every
// event plus queue.touch's moved-flag test on every transmission, drop
// and blackhole.
package obs
