package report

import (
	"fmt"
	"math"
	"strings"
)

// DefaultRelThreshold is the relative worsening beyond which a gated
// metric fails the diff: 10%. The gated metrics are deterministic for a
// fixed seed, so any move is the model's, and this bound only tells a
// regression from a small move made on purpose.
const DefaultRelThreshold = 0.10

// Delta is one metric's change from base to cur. Rel is signed so that
// positive always means "worse" regardless of the metric's direction
// (FCT up = worse, goodput down = worse).
type Delta struct {
	Metric   string  `json:"metric"`
	Base     float64 `json:"base"`
	Cur      float64 `json:"cur"`
	Rel      float64 `json:"rel"` // + = worse, - = better
	Gated    bool    `json:"gated"`
	Exceeded bool    `json:"exceeded"`
}

// DiffReport is the verdict of comparing two runs. Added lists metrics
// present only in the current run — a baseline from before the metric
// existed says nothing about regression, but silently dropping the
// comparison hid that the run now measures more; added metrics never
// fail the gate.
type DiffReport struct {
	Deltas []Delta `json:"deltas"`
	Added  []Delta `json:"added,omitempty"`
	Pass   bool    `json:"pass"`
}

// Regressions returns the gated deltas that exceeded their threshold.
func (d DiffReport) Regressions() []Delta {
	var out []Delta
	for _, dl := range d.Deltas {
		if dl.Exceeded {
			out = append(out, dl)
		}
	}
	return out
}

// String renders the diff as an aligned table, regressions marked and
// current-run-only metrics prefixed with '+'.
func (d DiffReport) String() string {
	var b strings.Builder
	w := 28 // the name column, widened to the longest name
	for _, dl := range d.Deltas {
		w = max(w, len(dl.Metric))
	}
	for _, dl := range d.Added {
		w = max(w, len(dl.Metric))
	}
	for _, dl := range d.Deltas {
		mark := " "
		if dl.Exceeded {
			mark = "✗"
		} else if !dl.Gated {
			mark = "·"
		}
		fmt.Fprintf(&b, "%s %-*s %14.6g -> %14.6g  %+7.2f%%\n", mark, w, dl.Metric, dl.Base, dl.Cur, dl.Rel*100)
	}
	for _, dl := range d.Added {
		fmt.Fprintf(&b, "+ %-*s %14s -> %14.6g  (new in current run)\n", w, dl.Metric, "-", dl.Cur)
	}
	if d.Pass {
		b.WriteString("PASS\n")
	} else {
		fmt.Fprintf(&b, "FAIL: %d gated metric(s) regressed\n", len(d.Regressions()))
	}
	return b.String()
}

// direction encodes which way a metric worsens.
type direction int

const (
	higherWorse direction = iota
	lowerWorse
)

// Diff compares cur against base metric by metric. Deterministic
// simulation metrics (FCT percentiles, goodput, plane imbalance, drops,
// solver phases/iterations, in total and per (experiment, solver, K),
// engine event counts) are gated: worsening
// beyond rel fails the report; at zero any worsening does.
// Wall-clock metrics ride along informationally: they are not
// deterministic for a fixed seed, and one run a side cannot resolve them;
// the benchmark's -compare, with its repeated passes, judges wall time.
// Metrics absent from either run (zero observations) are skipped rather
// than compared against zero.
func Diff(base, cur RunSummary, rel float64) DiffReport {
	var d DiffReport
	add := func(name string, b, c float64, dir direction, gated bool) {
		if b == 0 && c == 0 {
			return
		}
		dl := Delta{Metric: name, Base: b, Cur: c, Rel: relWorsening(b, c, dir), Gated: gated}
		dl.Exceeded = gated && dl.Rel > rel
		d.Deltas = append(d.Deltas, dl)
	}
	added := func(name string, c float64) {
		d.Added = append(d.Added, Delta{Metric: name, Cur: c})
	}

	switch {
	case base.FCT.Count > 0 && cur.FCT.Count > 0:
		add("fct_s.p50", base.FCT.P50, cur.FCT.P50, higherWorse, true)
		add("fct_s.p99", base.FCT.P99, cur.FCT.P99, higherWorse, true)
		add("fct_s.p999", base.FCT.P999, cur.FCT.P999, higherWorse, true)
		add("fct_s.mean", base.FCT.Mean, cur.FCT.Mean, higherWorse, true)
	case cur.FCT.Count > 0:
		added("fct_s.p50", cur.FCT.P50)
		added("fct_s.p99", cur.FCT.P99)
		added("fct_s.p999", cur.FCT.P999)
		added("fct_s.mean", cur.FCT.Mean)
	}
	add("flows", float64(base.Flows), float64(cur.Flows), lowerWorse, true)
	add("flow_bytes", float64(base.FlowBytes), float64(cur.FlowBytes), lowerWorse, true)
	add("retransmits", float64(base.Retransmits), float64(cur.Retransmits), higherWorse, true)
	add("goodput_bps", base.GoodputBps, cur.GoodputBps, lowerWorse, true)
	add("plane_imbalance", base.PlaneImbalance, cur.PlaneImbalance, higherWorse, true)
	add("drops", float64(base.Drops), float64(cur.Drops), higherWorse, true)
	switch {
	case base.LinkUtil.Count > 0 && cur.LinkUtil.Count > 0:
		add("link_util.p99", base.LinkUtil.P99, cur.LinkUtil.P99, higherWorse, false)
		add("queue_bytes.p99", base.QueueBytes.P99, cur.QueueBytes.P99, higherWorse, false)
	case cur.LinkUtil.Count > 0:
		added("link_util.p99", cur.LinkUtil.P99)
		added("queue_bytes.p99", cur.QueueBytes.P99)
	}
	add("solver.phases", float64(base.Solver.Phases), float64(cur.Solver.Phases), higherWorse, true)
	add("solver.iterations", float64(base.Solver.Iterations), float64(cur.Solver.Iterations), higherWorse, true)
	add("solver.wall_s", base.Solver.WallSec, cur.Solver.WallSec, higherWorse, false)
	baseSolves := map[string]SolveTotals{}
	for _, t := range base.Solver.Solves {
		baseSolves[t.name()] = t
	}
	for _, c := range cur.Solver.Solves {
		name := c.name()
		b, ok := baseSolves[name]
		if !ok {
			added(name+".phases", float64(c.Phases))
			added(name+".iterations", float64(c.Iterations))
			continue
		}
		add(name+".phases", float64(b.Phases), float64(c.Phases), higherWorse, true)
		add(name+".iterations", float64(b.Iterations), float64(c.Iterations), higherWorse, true)
	}
	add("engine.events", float64(base.Engine.Events), float64(cur.Engine.Events), higherWorse, true)
	add("engine.wall_s", base.Engine.WallSec, cur.Engine.WallSec, higherWorse, false)
	add("engine.events_per_sec", base.Engine.EventsPerSec, cur.Engine.EventsPerSec, lowerWorse, false)

	// Attribution shares compare only when both runs recorded spans. The
	// stall shares are gated: a change that shifts FCT composition toward
	// dead protocol time (more RTO stalls, more repath gaps) is a
	// regression even when the FCT percentiles still squeak under their
	// thresholds. Shares are in [0,1], so gate on absolute movement via
	// the same relative rule (base==0 → any appearance trips it, which is
	// exactly right for stall time).
	switch {
	case base.Attribution != nil && cur.Attribution != nil:
		ba, ca := base.Attribution, cur.Attribution
		add("attribution.rto_stall.share", ba.ComponentShare("rto_stall"), ca.ComponentShare("rto_stall"), higherWorse, true)
		add("attribution.repath_gap.share", ba.ComponentShare("repath_gap"), ca.ComponentShare("repath_gap"), higherWorse, true)
		add("attribution.queue.share", ba.ComponentShare("queue"), ca.ComponentShare("queue"), higherWorse, false)
		add("attribution.host_wait.share", ba.ComponentShare("host_wait"), ca.ComponentShare("host_wait"), higherWorse, false)
	case cur.Attribution != nil:
		for _, c := range cur.Attribution.Overall {
			added(fmt.Sprintf("attribution.%s.plane%d.share", c.Component, c.Plane), c.Share)
		}
	}

	// Fault metrics compare only when both runs exercised faults — a
	// fault-free baseline says nothing about failover latency, and the
	// base==0 "appeared from nowhere" rule would fail every first faults
	// run against an old baseline.
	if base.Faults == nil && cur.Faults != nil {
		added("faults.blackholed", float64(cur.Faults.Blackholed))
		if cur.Faults.DetectLatency.Count > 0 {
			added("faults.detect_latency_s.p50", cur.Faults.DetectLatency.P50)
		}
		if cur.Faults.FailoverLatency.Count > 0 {
			added("faults.failover_latency_s.p50", cur.Faults.FailoverLatency.P50)
		}
		if cur.Faults.Recovery.Count > 0 {
			added("faults.recovery_s.p50", cur.Faults.Recovery.P50)
		}
	}
	if base.Faults != nil && cur.Faults != nil {
		bf, cf := base.Faults, cur.Faults
		add("faults.blackholed", float64(bf.Blackholed), float64(cf.Blackholed), higherWorse, false)
		if bf.DetectLatency.Count > 0 && cf.DetectLatency.Count > 0 {
			add("faults.detect_latency_s.p50", bf.DetectLatency.P50, cf.DetectLatency.P50, higherWorse, true)
			add("faults.detect_latency_s.max", bf.DetectLatency.Max, cf.DetectLatency.Max, higherWorse, true)
		}
		if bf.FailoverLatency.Count > 0 && cf.FailoverLatency.Count > 0 {
			add("faults.failover_latency_s.p50", bf.FailoverLatency.P50, cf.FailoverLatency.P50, higherWorse, true)
		}
		if bf.Recovery.Count > 0 && cf.Recovery.Count > 0 {
			add("faults.recovery_s.p50", bf.Recovery.P50, cf.Recovery.P50, higherWorse, true)
		}
		if bf.DipFrac.Count > 0 && cf.DipFrac.Count > 0 {
			add("faults.dip_frac.mean", bf.DipFrac.Mean, cf.DipFrac.Mean, higherWorse, false)
		}
	}

	// Determinism fingerprints compare only when both runs carry them (a
	// fingerprint-free baseline pins nothing). Hashes either match or
	// they don't: a mismatch is rendered as a 0→1 gated delta, which
	// exceeds every sane threshold — exactly the semantics we want for
	// "these runs did not execute the same events".
	if base.Fingerprint != nil && cur.Fingerprint != nil {
		bf, cf := base.Fingerprint, cur.Fingerprint
		mismatch := 0.0
		if bf.Global != cf.Global {
			mismatch = 1
		}
		add("fingerprint.global.mismatch", 0, mismatch, higherWorse, true)
		add("fingerprint.events", float64(bf.Events), float64(cf.Events), higherWorse, true)
	} else if cur.Fingerprint != nil {
		added("fingerprint.events", float64(cur.Fingerprint.Events))
	}

	d.Pass = len(d.Regressions()) == 0
	return d
}

// relWorsening returns the signed relative change in the "worse"
// direction: +0.25 means 25% worse, -0.10 means 10% better. A metric
// appearing out of nowhere (base 0, cur > 0, higher = worse) counts as
// 100% worse so it trips any sane threshold. No change is 0, never -0,
// which would print as -0.00%.
func relWorsening(base, cur float64, dir direction) float64 {
	delta := cur - base
	switch {
	case delta == 0:
		return 0
	case dir == lowerWorse:
		delta = -delta
	}
	if base == 0 {
		if delta > 0 {
			return 1
		}
		return -1
	}
	return delta / math.Abs(base)
}
