// Command pnetstat turns the telemetry that pnetbench emits into
// decisions: human-readable run summaries, latency attribution,
// determinism fingerprints and their bisection, and a cross-run diff
// that gates the simulation-deterministic metrics.
//
// Usage:
//
//	pnetstat summary [-json] [-o out.json] <run>
//	pnetstat attribution [-json] <run>
//	pnetstat profile [-json] <run>
//	pnetstat fingerprint [-json] <run>
//	pnetstat divergence [-k 5] <base> <cur>
//	pnetstat export-trace [-o trace.json] <metrics.jsonl>
//	pnetstat diff [-threshold 0.1] <base> <cur>
//
// <run>, <base>, and <cur> accept either a RunSummary JSON (written by
// `pnetbench -report` or by `pnetstat summary -o`) or a raw metrics
// JSONL stream (`pnetbench -metrics`), auto-detected; a stream is decoded
// line by line into the aggregator `-report` uses, so memory does not
// grow with it, and its summary is the one `-report` writes for the same
// run, field for field, bar the run's identity. divergence and export-trace need the records themselves
// and hold the stream in memory. `diff` exits 1 when a gated metric of
// <cur> is worse than <base> beyond the threshold; wall-clock rows are
// printed and never gated (wall time is `sh bench/run.sh` and its
// -compare). CI's <base> is the merge base, run in the same job. Exit
// codes: 0 ok, 1 regression or divergence, 2 usage/input error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"pnet/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage: pnetstat <command> [flags] <file...>

commands:
  summary [-json] [-o out.json] <run>
      print a run summary (FCT percentiles, plane shares, solver/engine
      stats); -o writes the summary JSON
  attribution [-json] <run>
      print the latency attribution tables: where every second of FCT
      went (queueing, serialization, propagation, RTO stalls, repath
      gaps, host waits) per plane, overall and for the p99.9 tail;
      needs a run recorded with pnetbench -spans
  profile [-json] <run>
      print the event-loop profile: per-(kind, plane) event counts and
      wall time, per-plane event rates and the host-boundary fraction;
      needs pnetbench -spans
  fingerprint [-json] <run>
      print the determinism fingerprint: the XOR-folded global, host,
      and per-plane hash chains; needs pnetbench -fingerprint
  divergence [-k 5] <base> <cur>
      compare two runs' fingerprint checkpoint streams (metrics JSONL),
      binary-search to the first divergent epoch, and print the event
      that closed it on each side with ±k checkpoints of context and
      per-plane attribution; streams made with -fingerprint-epoch 1 name
      the first divergent event itself; exit 0 match, 1 diverged, 2 error
  export-trace [-o trace.json] <metrics.jsonl>
      convert a metrics stream into Chrome Trace Event JSON viewable in
      Perfetto (ui.perfetto.dev): each engine's planes as processes,
      flows as tracks, span components as slices, faults and packets
      (pnetbench -trace) as instants on their engine's plane
  diff [-threshold 0.1] <base> <cur>
      per-metric deltas between two runs of the same experiment, scale
      and seed; exit 1 if a gated (simulation-deterministic) metric
      worsens beyond the threshold, wall-clock rows are informational

runs are RunSummary JSON (pnetbench -report) or metrics JSONL
(pnetbench -metrics), auto-detected.
`

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usage)
		return 2
	}
	switch cmd, rest := args[0], args[1:]; cmd {
	case "summary":
		return runSummary(rest, stdout, stderr)
	case "attribution":
		return runView(cmd, rest, stdout, stderr, attributionView)
	case "profile":
		return runView(cmd, rest, stdout, stderr, profileView)
	case "fingerprint":
		return runView(cmd, rest, stdout, stderr, fingerprintView)
	case "divergence":
		return runDivergence(rest, stdout, stderr)
	case "export-trace":
		return runExportTrace(rest, stdout, stderr)
	case "diff":
		return runDiff(rest, stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprint(stdout, usage)
		return 0
	default:
		fmt.Fprintf(stderr, "pnetstat: unknown command %q\n\n%s", cmd, usage)
		return 2
	}
}

// loadRun reads a run file, tolerating nothing the library does not;
// errors go to stderr with exit code 2 semantics handled by callers.
func loadRun(path string, stderr io.Writer) (report.RunSummary, bool) {
	s, err := report.LoadRun(path, report.Meta{})
	if err != nil {
		fmt.Fprintf(stderr, "pnetstat: %v\n", err)
		return report.RunSummary{}, false
	}
	return s, true
}

func runSummary(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("summary", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "print the summary as JSON instead of text")
	out := fs.String("o", "", "also write the summary JSON to this file")
	if fs.Parse(args) != nil || fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: pnetstat summary [-json] [-o out.json] <run>")
		return 2
	}
	s, ok := loadRun(fs.Arg(0), stderr)
	if !ok {
		return 2
	}
	if s.Created == "" {
		s.Created = time.Now().UTC().Format(time.RFC3339)
	}
	if *out != "" {
		b, err := json.MarshalIndent(s, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "pnetstat: %v\n", err)
			return 2
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "pnetstat: %v\n", err)
			return 2
		}
	}
	if *asJSON {
		b, _ := json.MarshalIndent(s, "", "  ")
		fmt.Fprintln(stdout, string(b))
	} else {
		fmt.Fprint(stdout, s.String())
	}
	return 0
}

// runView is a subcommand that prints one view of one run: its text, or
// with -json the JSON of its part. A view that is not ok is missing from
// the run: a usage error naming the pnetbench flag that records it.
func runView(name string, args []string, stdout, stderr io.Writer, view func(report.RunSummary) (part any, text string, ok bool)) int {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "print the "+name+" summary as JSON instead of text")
	if fs.Parse(args) != nil || fs.NArg() != 1 {
		fmt.Fprintf(stderr, "usage: pnetstat %s [-json] <run>\n", name)
		return 2
	}
	s, ok := loadRun(fs.Arg(0), stderr)
	if !ok {
		return 2
	}
	part, text, ok := view(s)
	if !ok {
		fmt.Fprintf(stderr, "pnetstat: %s has no %s records — rerun with pnetbench -%s\n", fs.Arg(0), name, name)
		return 2
	}
	if *asJSON {
		b, _ := json.MarshalIndent(part, "", "  ")
		fmt.Fprintln(stdout, string(b))
	} else {
		fmt.Fprint(stdout, text)
	}
	return 0
}

func attributionView(s report.RunSummary) (any, string, bool) {
	return s.Attribution, s.AttributionString(), true
}

func profileView(s report.RunSummary) (any, string, bool) {
	return s.Profile, s.ProfileString(), true
}

func fingerprintView(s report.RunSummary) (any, string, bool) {
	fp := s.Fingerprint
	if fp == nil {
		return nil, "", false
	}
	var b strings.Builder
	fmt.Fprintf(&b, "fingerprint: %d engine(s), %d events, epoch %d\n", fp.Engines, fp.Events, fp.EpochEvents)
	fmt.Fprintf(&b, "global %s\nhost   %s\n", fp.Global, fp.Host)
	for _, p := range fp.Planes {
		fmt.Fprintf(&b, "plane %d %s\n", p.Plane, p.Hash)
	}
	return fp, b.String(), true
}

func runDivergence(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("divergence", flag.ContinueOnError)
	fs.SetOutput(stderr)
	k := fs.Int("k", 5, "context window: checkpoints printed either side of the divergence")
	if fs.Parse(args) != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: pnetstat divergence [-k 5] <base> <cur>")
		return 2
	}
	base, err := report.LoadStream(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "pnetstat: %v\n", err)
		return 2
	}
	cur, err := report.LoadStream(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "pnetstat: %v\n", err)
		return 2
	}
	d, err := report.FindDivergence(base, cur, *k)
	if err != nil {
		fmt.Fprintf(stderr, "pnetstat: %v\n", err)
		return 2
	}
	fmt.Fprint(stdout, d.String())
	if d.Match {
		return 0
	}
	if d.Note == "" {
		divergenceContext(stdout, d, base, cur)
	}
	return 1
}

// divergenceContext prints the span and flight-recorder context around
// a divergence, when the streams carry it: the flow of the event that
// closed each side's divergent checkpoint, with its FCT decomposition (a
// -spans run), and the diverging planes' event-loop bins (the flight
// recorder). Both tell the debugger what the guilty event was doing, not
// just that it moved.
func divergenceContext(w io.Writer, d *report.Divergence, base, cur *report.Stream) {
	sides := []struct {
		name string
		st   *report.Stream
		flow int64
	}{{"base", base, d.Base.Flow}, {"cur", cur, d.Cur.Flow}}
	for _, s := range sides {
		if s.flow <= 0 {
			continue
		}
		for _, f := range s.st.Flows {
			if f.ID != s.flow {
				continue
			}
			fmt.Fprintf(w, "  flow %d (%s): %s %d bytes fct=%.3gs", f.ID, s.name, f.Transport, f.Bytes, f.FCT)
			for _, sp := range f.Spans {
				fmt.Fprintf(w, " %s[p%d]=%dps", sp.Component, sp.Plane, sp.Ps)
			}
			fmt.Fprintln(w)
			break
		}
	}
	// The base engine's bins suffice for orientation.
	for _, p := range base.Profiles {
		if p.Net == d.BaseNet && slices.Contains(d.Planes, p.Plane) {
			fmt.Fprintf(w, "  flight recorder (base): plane %d %s ×%d\n", p.Plane, p.Kind, p.Events)
		}
	}
}

func runExportTrace(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("export-trace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("o", "", "write the trace JSON to this file instead of stdout")
	if fs.Parse(args) != nil || fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: pnetstat export-trace [-o trace.json] <metrics.jsonl>")
		return 2
	}
	st, err := report.LoadStream(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "pnetstat: %v\n", err)
		return 2
	}
	tr, err := report.ExportTrace(st)
	if err != nil {
		fmt.Fprintf(stderr, "pnetstat: %v\n", err)
		return 2
	}
	b, err := json.Marshal(tr)
	if err != nil {
		fmt.Fprintf(stderr, "pnetstat: %v\n", err)
		return 2
	}
	b = append(b, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, b, 0o644); err != nil {
			fmt.Fprintf(stderr, "pnetstat: %v\n", err)
			return 2
		}
		fmt.Fprintf(stdout, "wrote %s (%d events)\n", *out, len(tr.TraceEvents))
		return 0
	}
	fmt.Fprint(stdout, string(b))
	return 0
}

func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	rel := fs.Float64("threshold", 0, "relative worsening allowed on gated metrics (default 0.10)")
	if fs.Parse(args) != nil || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: pnetstat diff [-threshold 0.1] <base> <cur>")
		return 2
	}
	base, ok := loadRun(fs.Arg(0), stderr)
	if !ok {
		return 2
	}
	cur, ok := loadRun(fs.Arg(1), stderr)
	if !ok {
		return 2
	}
	if why := notComparable(base, cur); why != "" {
		fmt.Fprintf(stderr, "pnetstat: %s and %s are not comparable: %s\n", fs.Arg(0), fs.Arg(1), why)
		return 2
	}
	d := report.Diff(base, cur, *rel)
	fmt.Fprint(stdout, d.String())
	if !d.Pass {
		return 1
	}
	return 0
}

// notComparable names the first identity field on which two runs differ,
// or returns "" when a diff between them means something. Only runs that
// both say what they are can be refused: a metrics stream carries no
// exp/scale/seed, so a side with none of the three is accepted as is.
func notComparable(base, cur report.RunSummary) string {
	anonymous := func(s report.RunSummary) bool { return s.Exp == "" && s.Scale == "" && s.Seed == 0 }
	switch {
	case anonymous(base) || anonymous(cur):
	case base.Exp != cur.Exp:
		return fmt.Sprintf("exp %q vs %q", base.Exp, cur.Exp)
	case base.Scale != cur.Scale:
		return fmt.Sprintf("scale %q vs %q", base.Scale, cur.Scale)
	case base.Seed != cur.Seed:
		return fmt.Sprintf("seed %d vs %d", base.Seed, cur.Seed)
	}
	return ""
}
