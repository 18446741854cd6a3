// Package exp implements one experiment per table and figure in the
// paper's evaluation. Each experiment builds its topologies, runs the LP
// (max-concurrent-flow) solver or the packet simulator, and renders the
// same rows/series the paper reports. The cmd/pnetbench harness and the
// repository's benchmark suite both call into this package.
//
// Experiments run at two scales: ScaleSmall (the default) shrinks host
// counts and flow sizes so every experiment finishes in seconds to
// minutes on a laptop; ScaleFull uses the paper's sizes (1024-host fat
// trees, 686-host Jellyfish, 100 GB shuffles) and can take hours, exactly
// like the original artifact. EXPERIMENTS.md records the mapping.
//
// An experiment's independent cells (one per network, trial or sweep
// point) fan out through par.Do, as wide as the process-wide par limit
// (pnetbench's -workers). A cell derives all state from its index: its
// own topology or a shared read-only one, its own driver/engine/RNG, and
// per-index result slots; everything shared (the collector, per-graph
// caches) aggregates commutatively. Results are bit-identical at any
// width.
package exp

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"pnet/internal/chaos"
	"pnet/internal/mcf"
	"pnet/internal/obs"
	"pnet/internal/sim"
	"pnet/internal/tcp"
	"pnet/internal/topo"
	"pnet/internal/workload"
)

// Scale selects experiment sizing.
type Scale int

const (
	// ScaleSmall shrinks topologies and flow sizes for fast runs.
	ScaleSmall Scale = iota
	// ScaleFull uses the paper's published sizes.
	ScaleFull
)

func (s Scale) String() string {
	if s == ScaleFull {
		return "full"
	}
	return "small"
}

// Params configures a run.
type Params struct {
	Scale Scale
	// Seed makes runs reproducible; experiments derive all randomness
	// from it.
	Seed int64
	// Obs, when non-nil, collects telemetry: packet-simulation
	// experiments attach tracers/samplers to every network they build,
	// and LP-backed experiments record solver instrumentation. Nil (the
	// default) costs nothing.
	Obs *obs.Collector
	// Chaos, when non-nil, overrides the built-in fault script of
	// fault-aware experiments (currently "faults"): each materializes it
	// against its own topology with Build. Parsed from pnetbench's
	// -chaos flag; other experiments ignore it.
	Chaos *chaos.Spec
}

// newDriver builds a workload driver, instrumented when telemetry is on.
// Experiments must create drivers through this so every network a run
// touches reports to the same collector.
func (p Params) newDriver(tp *topo.Topology, simCfg sim.Config, tcpCfg tcp.Config) *workload.Driver {
	d := workload.NewDriver(tp, simCfg, tcpCfg)
	if p.Obs != nil {
		d.Instrument(p.Obs)
	}
	return d
}

// recordSolver forwards one LP/flow-solver result to the collector.
func (p Params) recordSolver(expID, solver string, k int, r mcf.Result) {
	if p.Obs == nil {
		return
	}
	p.Obs.RecordSolver(obs.SolverRecord{
		Exp:        expID,
		Solver:     solver,
		K:          k,
		Lambda:     r.Lambda,
		Phases:     r.Stats.Phases,
		Iterations: r.Stats.Iterations,
		Attempts:   r.Stats.Attempts,
		WallSec:    r.Stats.Wall.Seconds(),
	})
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Note   string
	Header []string
	Rows   [][]string
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV renders the table as RFC-4180-ish CSV (quotes around cells that
// contain commas or quotes), for piping into plotting tools — the role
// the original artifact's CSV intermediates played.
func (t Table) CSV() string {
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				c = "\"" + strings.ReplaceAll(c, "\"", "\"\"") + "\""
			}
			b.WriteString(c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// JSON renders the table as a single JSON object, including the
// elapsed wall-clock seconds, for machine consumers of -format json.
func (t Table) JSON(elapsedSec float64) string {
	rows := t.Rows
	if rows == nil {
		rows = [][]string{}
	}
	b, err := json.Marshal(struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Note    string     `json:"note,omitempty"`
		Header  []string   `json:"header"`
		Rows    [][]string `json:"rows"`
		Elapsed float64    `json:"elapsed_s"`
	}{t.ID, t.Title, t.Note, t.Header, rows, elapsedSec})
	if err != nil {
		panic(err) // strings-only struct: cannot fail
	}
	return string(b)
}

// Experiment pairs an identifier with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(Params) Table
}

var registry []Experiment

func register(id, title string, run func(Params) Table) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns every registered experiment sorted by ID.
func All() []Experiment {
	out := append([]Experiment(nil), registry...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// f2 formats a float with two decimals; f3 with three.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

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

// meanStd returns mean and population standard deviation.
func meanStd(xs []float64) (mean, std float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	std /= float64(len(xs))
	return mean, math.Sqrt(std)
}
