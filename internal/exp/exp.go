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
	"strconv"
	"strings"
	"time"

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

// recordSolver forwards one LP solve, and the wall time it took, to the
// collector.
func (p Params) recordSolver(expID, solver string, k int, r mcf.Result, wall time.Duration) {
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
		WallSec:    wall.Seconds(),
	})
}

// Table is a rendered experiment result.
type Table struct {
	ID     string
	Title  string
	Note   string
	Header []string
	Rows   [][]Cell
}

// Cell is one table entry: a value and the format that prints it. A
// number holds what it shows (a percent cell holds percent), a duration
// seconds and a size bytes, whatever unit they print in; a label holds 0.
type Cell struct {
	V     float64
	text  string // a label's text
	verb  string // a number's printf verb
	units []unit // a duration's or a size's units
	star  bool   // a * after the value: a K sweep's first saturating K
}

// String is the one place a cell's number becomes text.
func (c Cell) String() string {
	s := c.text
	if c.units != nil {
		s = scaled(c.V, c.units)
	} else if c.verb != "" {
		s = fmt.Sprintf(c.verb, c.V)
	}
	if c.star {
		s += "*"
	}
	return s
}

func label(s string) Cell             { return Cell{text: s} }
func num(v float64, verb string) Cell { return Cell{V: v, verb: verb} }
func f2(v float64) Cell               { return num(v, "%.2f") }
func count[T ~int | ~int64](n T) Cell { return num(float64(n), "%.0f") }
func secs(seconds float64) Cell       { return Cell{V: seconds, units: secondUnits} }
func bytesCell(bytes float64) Cell    { return Cell{V: bytes, units: byteUnits} }

// stall is the row of a run that did not finish: the cells that name it,
// "stall", then blanks up to width cells.
func stall(width int, lead ...Cell) []Cell {
	row := make([]Cell, width)
	copy(row, append(lead, label("stall")))
	return row
}

// A unit prints a value as verb of the value times scale, then suffix.
// Unit lists run from the smallest up.
type unit struct {
	scale        float64
	verb, suffix string
}

var (
	secondUnits = []unit{{1e9, "%.0f", "ns"}, {1e6, "%.3g", "us"}, {1e3, "%.3g", "ms"}, {1, "%.3g", "s"}}
	byteUnits   = []unit{{1, "%.0f", "B"}, {1e-3, "%.1f", "kB"}, {1e-6, "%.1f", "MB"}, {1e-9, "%.1f", "GB"}}
)

// scaled prints v in the first of units in which it prints below 1000,
// or else in the last. The unit is chosen after rounding, so a value
// just under a unit's boundary reads 1.0kB, not 1000B.
func scaled(v float64, units []unit) string {
	for i, u := range units {
		s := fmt.Sprintf(u.verb, v*u.scale)
		if r, _ := strconv.ParseFloat(s, 64); !(r >= 1000) || i == len(units)-1 {
			return s + u.suffix
		}
	}
	panic("exp: no units")
}

// cellText renders every cell: the rows as printed, and as -format json
// carries them.
func (t Table) cellText() [][]string {
	rows := make([][]string, len(t.Rows))
	for i, row := range t.Rows {
		rows[i] = make([]string, len(row))
		for j, c := range row {
			rows[i][j] = c.String()
		}
	}
	return rows
}

// String renders the table with aligned columns.
func (t Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(&b, "%s\n", t.Note)
	}
	rows := append([][]string{t.Header}, t.cellText()...)
	widths := make([]int, len(t.Header))
	for _, row := range rows {
		for i, c := range row {
			widths[i] = max(widths[i], len(c))
		}
	}
	for _, row := range rows {
		for i, c := range row {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// JSON renders the table as a single JSON object, including the
// elapsed wall-clock seconds, for machine consumers of -format json.
// Rows hold the cells' printed text.
func (t Table) JSON(elapsedSec float64) string {
	b, err := json.Marshal(struct {
		ID      string     `json:"id"`
		Title   string     `json:"title"`
		Note    string     `json:"note,omitempty"`
		Header  []string   `json:"header"`
		Rows    [][]string `json:"rows"`
		Elapsed float64    `json:"elapsed_s"`
	}{t.ID, t.Title, t.Note, t.Header, t.cellText(), elapsedSec})
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
