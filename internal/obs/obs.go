// Package obs is the simulator's telemetry layer, the producing half:
// Sink, one typed method per record kind, which every record of a run is
// handed to and nothing else (sink.go); a periodic Sampler that reads
// per-link, per-plane and engine state from a running simulation
// (sampler.go); the JSONL metrics writer, itself a Sink and the one
// writer of every kind, packet events included (jsonl.go); the record
// shapes both ends share (schema.go); a Collector that bundles them for
// the experiment harness, installs a packet tracer per network when asked
// and retains no record (collector.go); and the log-bucketed Histogram
// the summaries take link-level percentiles from (this file). The
// consuming half, internal/report, decodes a file back into a Sink.
//
// The paper's §7 treats per-plane monitoring as a first-class concern of
// P-Nets, and every figure in its evaluation is a time series or a
// distribution. This package makes those observable while a simulation
// runs instead of reconstructable only from final tables.
//
// Everything here is stdlib-only. Each sim engine remains single-threaded,
// but the parallel sweep harness runs many engines at once against one
// shared Collector, so everything that is shared is safe for concurrent
// producers: the collector's attach bookkeeping, the metrics writer and
// the histogram each carry a mutex. All hooks are nil-safe: a nil *Collector
// accepts records and does nothing (StreamMetrics aside), and an
// unattached network pays sim.Network's nil-Tracer branch plus
// queue.touch's moved-flag test on every transmission, drop and blackhole.
package obs

import (
	"math"
	"sync"
)

// histBuckets spans 2^-64 .. 2^63, wide enough for picosecond times
// expressed in seconds on one end and byte counts on the other.
const histBuckets = 128

// Histogram is a log-bucketed histogram: bucket i counts observations in
// [2^(i-65), 2^(i-64)), so relative error of a quantile estimate is at
// most 2x regardless of scale — the right trade for latency-style
// distributions that span many decades. Safe for concurrent use; because
// every update is commutative, the final contents are independent of
// observation order and hence of worker count.
type Histogram struct {
	mu       sync.Mutex
	buckets  [histBuckets]int64
	count    int64
	sum      float64
	min, max float64
}

func bucketOf(v float64) int {
	if v <= 0 {
		return 0
	}
	_, exp := math.Frexp(v) // v = frac * 2^exp, frac in [0.5, 1)
	idx := exp + 64
	if idx < 0 {
		return 0
	}
	if idx >= histBuckets {
		return histBuckets - 1
	}
	return idx
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	h.buckets[bucketOf(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if h.count == 1 || v > h.max {
		h.max = v
	}
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the exact mean (the sum is tracked outside the buckets).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min and Max return the exact extremes.
func (h *Histogram) Min() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

func (h *Histogram) Max() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// Quantile returns an estimate of the q-th quantile (0 < q ≤ 1): the
// geometric midpoint of the bucket where the cumulative count crosses q,
// clamped to the observed [min, max]. Accurate to within the 2x bucket
// width.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, n := range h.buckets {
		cum += n
		if cum >= target {
			lo := math.Ldexp(1, i-65)
			hi := math.Ldexp(1, i-64)
			v := math.Sqrt(lo * hi)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}
