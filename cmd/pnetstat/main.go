// Command pnetstat turns the telemetry that pnetbench emits into
// decisions: human-readable run summaries, latency attribution,
// determinism fingerprints and their bisection, and a cross-run diff
// that gates the simulation-deterministic metrics.
//
// `pnetstat help` lists the subcommands and their flags.
//
// <run>, <base>, and <cur> accept either a RunSummary JSON (written by
// `pnetbench -report`, or `pnetstat summary -json` of a stream) or a raw
// metrics JSONL stream (`pnetbench -metrics`), auto-detected. Every subcommand
// decodes a stream line by line into a sink that keeps only what its view
// needs, so memory does not grow with the file: the summary views into
// the aggregator `-report` uses, whose summary is the one `-report` writes
// for the same run, field for field, bar the run's identity; divergence
// one hash per fingerprint checkpoint; export-trace nothing, writing each
// record's events as it reads them. `diff` exits 1 when a gated metric of
// <cur> is worse than <base> beyond the threshold; wall-clock rows are
// printed and never gated (wall time is `sh bench/run.sh` and its
// -compare). CI's <base> is the merge base, run in the same job. Exit
// codes: 0 ok, 1 regression or divergence, 2 usage/input error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"pnet/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage: pnetstat <command> [flags] <file...>

commands:
  summary [-json] <run>
      print a run summary (FCT percentiles, plane shares, solver/engine
      stats); -json prints the RunSummary JSON pnetbench -report writes
  attribution [-json] <run>
      print the latency attribution tables: where every second of FCT
      went (queueing, serialization, propagation, RTO stalls, repath
      gaps, host waits) per plane, overall and for the p99.9 tail;
      needs a run recorded with pnetbench -spans
  divergence [-k 5] <base> <cur>
      compare two runs' fingerprint checkpoint streams (metrics JSONL),
      binary-search to the first divergent epoch, and print the event
      that closed it on each side with ±k checkpoints of context;
      streams made with -fingerprint-epoch 1 name
      the first divergent event itself; exit 0 match, 1 diverged, 2 error
  export-trace [-o trace.json] <metrics.jsonl>
      convert a metrics stream into Chrome Trace Event JSON viewable in
      Perfetto (ui.perfetto.dev): each engine's planes as processes,
      flows as tracks, span components as slices, faults and the events
      fingerprint checkpoints name (every event at pnetbench
      -fingerprint-epoch 1) as instants on their engine's plane
  diff [-threshold 0.1] <base> <cur>
      per-metric deltas between two runs of the same experiment, scale
      and seed; exit 1 if a gated (simulation-deterministic) metric
      worsens beyond the threshold (at 0, worsens at all), wall-clock
      rows are informational

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
		return runView(cmd, "", rest, stdout, stderr, summaryView)
	case "attribution":
		return runView(cmd, "spans", rest, stdout, stderr, attributionView)
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

// newFlagSet is a subcommand's flag set. It prints nothing: a bad command
// line is reported by badUsage, in one line.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// badUsage reports a bad command line in one line, the parse error (if
// any) ahead of the subcommand's usage, and returns the usage exit code.
func badUsage(stderr io.Writer, err error, usage string) int {
	if err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintf(stderr, "pnetstat: %v; usage: %s\n", err, usage)
	} else {
		fmt.Fprintf(stderr, "usage: %s\n", usage)
	}
	return 2
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

// runView is a subcommand that prints one view of one run: its text, or
// with -json the JSON of its part. A view that is not ok is missing from
// the run: a usage error naming both causes, a run made without flagName
// (the pnetbench flag that records it) or one that ran nothing making
// such records. The summary is in every run and has no flagName.
func runView(name, flagName string, args []string, stdout, stderr io.Writer, view func(report.RunSummary) (part any, text string, ok bool)) int {
	fs := newFlagSet(name)
	asJSON := fs.Bool("json", false, "print the "+name+" summary as JSON instead of text")
	if err := fs.Parse(args); err != nil || fs.NArg() != 1 {
		return badUsage(stderr, err, "pnetstat "+name+" [-json] <run>")
	}
	s, ok := loadRun(fs.Arg(0), stderr)
	if !ok {
		return 2
	}
	part, text, ok := view(s)
	if !ok {
		fmt.Fprintf(stderr, "pnetstat: %s has no %s records: the run was made without pnetbench -%s, or it ran nothing that makes them\n", fs.Arg(0), name, flagName)
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

// summaryView is the whole summary, present in every run; one loaded from
// a stream is stamped with the time it was made.
func summaryView(s report.RunSummary) (any, string, bool) {
	if s.Created == "" {
		s.Created = time.Now().UTC().Format(time.RFC3339)
	}
	return s, s.String(), true
}

func attributionView(s report.RunSummary) (any, string, bool) {
	if s.Attribution == nil {
		return nil, "", false
	}
	return s.Attribution, s.AttributionString(), true
}

func runDivergence(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("divergence")
	k := fs.Int("k", 5, "context window: checkpoints printed either side of the divergence")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 || *k < 0 {
		return badUsage(stderr, err, "pnetstat divergence [-k 5] <base> <cur> (k ≥ 0)")
	}
	d, err := report.FindDivergence(fs.Arg(0), fs.Arg(1), *k)
	if err != nil {
		fmt.Fprintf(stderr, "pnetstat: %v\n", err)
		return 2
	}
	fmt.Fprint(stdout, d.String())
	if d.Match {
		return 0
	}
	return 1
}

func runExportTrace(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("export-trace")
	out := fs.String("o", "", "write the trace JSON to this file instead of stdout")
	if err := fs.Parse(args); err != nil || fs.NArg() != 1 {
		return badUsage(stderr, err, "pnetstat export-trace [-o trace.json] <metrics.jsonl>")
	}
	if *out == "" {
		if _, err := report.ExportTrace(fs.Arg(0), stdout); err != nil {
			fmt.Fprintf(stderr, "pnetstat: %v\n", err)
			return 2
		}
		return 0
	}
	// The trace goes to a temporary file beside -o, renamed over it only
	// once complete: a failed export leaves no partial file and whatever
	// was at -o before as it was.
	f, err := os.CreateTemp(filepath.Dir(*out), filepath.Base(*out)+".*.tmp")
	if err != nil {
		fmt.Fprintf(stderr, "pnetstat: %v\n", err)
		return 2
	}
	n, err := report.ExportTrace(fs.Arg(0), f)
	err = errors.Join(err, f.Chmod(0o644), f.Close())
	if err == nil {
		err = os.Rename(f.Name(), *out)
	}
	if err != nil {
		os.Remove(f.Name())
		fmt.Fprintf(stderr, "pnetstat: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "wrote %s (%d events)\n", *out, n)
	return 0
}

func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := newFlagSet("diff")
	rel := fs.Float64("threshold", report.DefaultRelThreshold, "relative worsening allowed on gated metrics")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 || math.IsNaN(*rel) || *rel < 0 {
		return badUsage(stderr, err, "pnetstat diff [-threshold 0.1] <base> <cur> (threshold ≥ 0; 0 allows no worsening)")
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
