package main

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pnet/internal/par"
)

// config is one invocation of the harness.
type config struct {
	seed    int64
	seconds float64 // timed passes repeat until this much has been measured,
	passes  int     // and until there are at least this many
	trace   bool    // add the traced pass and the per-layer metrics
	sz      sizes
	golden  goldenFile
	cli     string // built pnetbench, for suite_observed
	tmp     string // where suite_observed's children write their reports
}

// result is everything measured on one workload.
type result struct {
	Name        string             `json:"name"`
	Passes      int                `json:"passes"`
	Wall        summary            `json:"wall_s"`
	CPU         summary            `json:"cpu_s"`
	Setup       float64            `json:"setup_s"`
	Attempted   int                `json:"attempted"`
	Failed      int                `json:"failed"`
	FailedShare float64            `json:"failed_share"`
	Failures    []string           `json:"failures,omitempty"`
	Golden      bool               `json:"golden_checked"`
	Work        map[string]float64 `json:"work_per_pass"`
	Layers      map[string]float64 `json:"layers,omitempty"`

	spans []span
	cold  []cell
}

// pass is one execution of a workload's cells.
type pass struct {
	cells     []cell
	wall, cpu float64 // seconds
	tr        *tracer
	child     childCost
	allocMB   float64
	gcCycles  float64
}

// rusageSelf reads the harness process's own CPU seconds (user+system)
// and peak resident set so far.
func rusageSelf() (cpu, rssMB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func runPass(w benchWorkload, cfg config, traced bool) pass {
	runtime.GC() // every pass starts from a collected heap
	e := &env{seed: cfg.seed, sz: cfg.sz, tr: &tracer{}, cli: cfg.cli, tmp: cfg.tmp}
	var m0, m1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&m0)
		e.tr = newTracer()
	}
	cpu0, _ := rusageSelf()
	start := time.Now()
	cells := w.run(e)
	wall := time.Since(start).Seconds()
	cpu1, _ := rusageSelf()
	p := pass{cells: cells, wall: wall, cpu: cpu1 - cpu0, child: e.child}
	if traced {
		runtime.ReadMemStats(&m1)
		p.tr = e.tr
		p.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
		p.gcCycles = float64(m1.NumGC - m0.NumGC)
	}
	if w.children {
		// Spawn to exit, summed: the harness's own parsing is not the
		// program's time.
		p.wall, p.cpu = e.child.wall, e.child.cpu
	}
	return p
}

// narrow holds the in-process layers to one goroutine, the way
// `pnetbench -workers 1` does (route.* fans out through par by default),
// and returns the function that undoes it.
func narrow() func() {
	par.SetLimit(1)
	return func() { par.SetLimit(0) }
}

// recordPass runs a single pass, for recording golden values.
func recordPass(w benchWorkload, cfg config) result {
	defer narrow()()
	p := runPass(w, cfg, false)
	r := result{Name: w.name, cold: p.cells}
	r.check("recording pass", p.cells, p.cells)
	return r
}

// runWorkload measures one workload: a cold pass, timed passes with
// tracing off, and with cfg.trace one traced pass.
func runWorkload(w benchWorkload, cfg config) result {
	defer narrow()()
	r := result{Name: w.name}

	cold := runPass(w, cfg, false)
	r.Setup, r.cold = cold.wall, cold.cells
	ref := cold.cells
	if g, ok := cfg.golden.cells(cfg.seed, w.name); ok {
		ref, r.Golden = g, true
	}
	r.check("cold pass", cold.cells, ref)

	var walls, cpus []float64
	measured := 0.0
	if w.children {
		// A child process keeps nothing from one pass to the next, so the
		// first pass is as warm as any other: it is also a timed one.
		walls, cpus, measured = []float64{cold.wall}, []float64{cold.cpu}, cold.wall
	}
	for len(walls) < cfg.passes || measured < cfg.seconds {
		p := runPass(w, cfg, false)
		r.check(fmt.Sprintf("timed pass %d", len(walls)+1), p.cells, ref)
		walls, cpus = append(walls, p.wall), append(cpus, p.cpu)
		measured += p.wall
	}
	r.Passes, r.Wall, r.CPU = len(walls), summarize(walls), summarize(cpus)
	r.Work = workOf(cold.cells)

	if cfg.trace {
		p := runPass(w, cfg, true)
		r.check("traced pass", p.cells, ref)
		r.spans = p.tr.spans
		r.Layers = layerMetrics(w, p, r.Wall.Median)
		if w.children {
			observerCosts(cfg, p, r.Layers)
		}
	}
	r.FailedShare = ratio(float64(r.Failed), float64(r.Attempted))
	return r
}

// check counts every cell of a pass as attempted, and as failed when it
// reports an error or differs from the reference in any checked value.
func (r *result) check(what string, got, ref []cell) {
	fail := func(id, why string) {
		r.Failed++
		if len(r.Failures) < 8 {
			r.Failures = append(r.Failures, fmt.Sprintf("%s, cell %s: %s", what, id, why))
		}
	}
	r.Attempted += len(ref)
	for i, want := range ref {
		switch {
		case i >= len(got) || got[i].ID != want.ID:
			fail(want.ID, "missing")
		case got[i].Err != "":
			fail(want.ID, got[i].Err)
		case want.Err != "":
			fail(want.ID, "reference failed: "+want.Err)
		default:
			if why := diffCells(got[i], want); why != "" {
				fail(want.ID, why)
			}
		}
	}
}

// diffCells names the first checked value on which two cells disagree.
func diffCells(got, want cell) string {
	for k, v := range want.Num {
		if g, ok := got.Num[k]; !ok || g != v {
			return fmt.Sprintf("%s = %v, want %v", k, g, v)
		}
	}
	if len(got.Num) != len(want.Num) {
		return fmt.Sprintf("%d values, want %d", len(got.Num), len(want.Num))
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		return fmt.Sprintf("table rows %v, want %v", got.Rows, want.Rows)
	}
	return ""
}

// workOf states the input size of one pass: cells, and what the cells
// themselves count.
func workOf(cells []cell) map[string]float64 {
	work := map[string]float64{"cells": float64(len(cells))}
	for _, c := range cells {
		for _, k := range []string{"commodities", "flows", "packet_hops", "rpcs"} {
			if v, ok := c.Num[k]; ok {
				work[k] += v
			}
		}
		for k, v := range c.Num {
			if strings.HasPrefix(k, "iterations") { // one per solve of the cell
				work["solver_iterations"] += v
			}
		}
	}
	return work
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics turns the traced pass's spans and counts into the
// per-layer metrics. A metric that does not apply to the workload is 0.
func layerMetrics(w benchWorkload, p pass, untracedWall float64) map[string]float64 {
	self, n := selfTimes(p.tr.spans), p.tr.counts
	m := map[string]float64{}
	for _, l := range layerMetricDefs {
		m[l.Name] = 0
	}
	for _, name := range []string{"topo.build", "workload.commodities", "route.ecmp", "route.ksp",
		"mcf.maxmin", "mcf.fixed", "mcf.free", "workload.start_flows", "sim.run"} {
		m[name+"_s"] = self[name]
	}
	for _, id := range benchSizes.suite {
		m["exp."+id+"_s"] = self["exp."+id]
	}
	for _, name := range []string{"topo.builds", "route.ksp_pairs", "mcf.phases", "mcf.iterations",
		"sim.events", "sim.packet_hops", "sim.drops", "tcp.flows",
		"report.bytes", "report.flows", "report.engine_events"} {
		m[name] = n[name]
	}
	m["route.ksp_us_per_pair"] = ratio(self["route.ksp"]*1e6, n["route.ksp_pairs"])
	m["mcf.ns_per_iter"] = ratio((self["mcf.fixed"]+self["mcf.free"])*1e9, n["mcf.iterations"])
	m["sim.events_per_hop"] = ratio(n["sim.events"], n["sim.packet_hops"])
	m["sim.ns_per_hop"] = ratio(self["sim.run"]*1e9, n["sim.packet_hops"])
	m["sim.allocs_per_hop"] = ratio(n["sim.mallocs"], n["sim.packet_hops"])
	m["tcp.us_per_flow"] = ratio(self["sim.run"]*1e6, n["tcp.flows"])

	wall := time.Duration(p.wall * float64(time.Second))
	m["trace.coverage"] = coverage(p.tr.spans, wall)
	m["trace.overhead_x"] = ratio(p.wall, untracedWall)
	m["harness.alloc_mb"] = p.allocMB
	m["harness.gc_cycles"] = p.gcCycles
	_, m["harness.peak_rss_mb"] = rusageSelf()
	if w.children {
		m["harness.peak_rss_mb"] = p.child.rssMB
	}
	return m
}

// observerCosts fills in what the observers and the sweep parallelism
// cost, by running the suite through the CLI in the other
// configurations: without observers serial and wide, with all of them
// wide, and serial with each flag alone. The traced pass is the serial,
// all-observers configuration. One run each, so these are ratios of
// single samples.
func observerCosts(cfg config, observed pass, m map[string]float64) {
	suite := func(workers int, flags ...string) childCost {
		e := &env{seed: cfg.seed, sz: cfg.sz, tr: &tracer{}, cli: cfg.cli, tmp: cfg.tmp}
		for _, id := range cfg.sz.suite {
			runCLI(e, id, workers, flags)
		}
		return e.child
	}
	plain, widePlain := suite(1), suite(0)
	wideObserved := suite(0, append([]string{"-report"}, observers...)...)
	report := suite(1, "-report")
	m["obs.overhead_x"] = ratio(observed.wall, plain.wall)
	m["obs.report_overhead_x"] = ratio(report.wall, plain.wall)
	m["obs.spans_overhead_x"] = ratio(suite(1, "-spans").wall, plain.wall)
	// -fingerprint needs a sink, so it is priced on top of -report.
	m["obs.fingerprint_overhead_x"] = ratio(suite(1, "-report", "-fingerprint").wall, report.wall)
	m["par.speedup_x"] = ratio(plain.wall, widePlain.wall)
	m["par.observed_speedup_x"] = ratio(observed.wall, wideObserved.wall)
	m["par.cpu_inflation_x"] = ratio(widePlain.cpu, plain.cpu)
}
