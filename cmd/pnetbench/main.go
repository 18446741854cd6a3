// Command pnetbench regenerates the tables and figures of "Scaling beyond
// packet switch limits with multiple dataplanes" (CoNEXT '22).
//
// Usage:
//
//	pnetbench
//	pnetbench -exp fig6a
//	pnetbench -exp all -scale full -seed 7
//	pnetbench -exp fig10 -metrics m.jsonl -fingerprint -fingerprint-epoch 1
//
// Each experiment prints the rows/series of the corresponding paper
// artifact. The default "small" scale shrinks topologies and flow sizes
// to finish quickly; "-scale full" runs the paper's sizes (some take
// hours, like the original artifact). See EXPERIMENTS.md for the mapping
// and recorded results.
//
// Telemetry: -metrics streams JSONL records (link queue depth and
// utilization, per-plane bytes, engine event rate, flow, solver and fault
// records) to a file path or "-" for stdout; every record names the
// engine that made it. -report writes a RunSummary JSON (FCT
// percentiles, plane shares, solver/engine aggregates) for pnetstat
// summary/diff with no JSONL round-trip; it is the reduction of the
// records -metrics would hold. -spans turns on latency attribution
// (per-flow FCT decomposition into queueing/serialization/propagation/
// stall components) behind `pnetstat attribution`. -fingerprint folds
// every fired event into its engine's rolling determinism hash chain,
// checkpointed every -fingerprint-epoch events into the metrics stream /
// report; each checkpoint names the event that closed it, so at
// -fingerprint-epoch 1 the stream holds one record per fired event (its
// time, kind, plane, link, flow, seq and size: the per-event trace, which
// `pnetstat export-trace` draws) and `pnetstat divergence` names the
// exact first divergent event. -pprof serves net/http/pprof on the given
// address for live profiling of long runs. See README.md "Telemetry" and
// "Analyzing runs" for the schemas.
//
// Parallelism: -workers N caps how many independent sweep cells run
// concurrently (0 = one per core, 1 = serial). Every cell owns its own
// engine and RNG, so tables are byte-identical at any worker count. Wall
// times go to stderr, beside the run header and footer that record the
// effective width: one line per experiment and the total, so stdout holds
// the tables alone. See DESIGN.md "Parallel execution".
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pnet/internal/exp"
	"pnet/internal/obs"
	"pnet/internal/par"
	"pnet/internal/report"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the command line: the flag values as given, and what
// validate resolved from them.
type options struct {
	expID, scale, format, pprof string
	metrics, report             string
	seed, fpEpoch               int64
	workers                     int
	spans, fingerprint          bool

	// Resolved by validate.
	toRun  []exp.Experiment // nil when no -exp was given
	params exp.Params
}

// validate checks every flag and flag combination and resolves -exp and
// -scale, all before run creates a file or starts a server: a rejected
// command line leaves nothing behind. set holds the flags that appeared
// on the command line (a zero -fingerprint-epoch is an error only when
// given explicitly), args what followed the flags.
func (o *options) validate(set map[string]bool, args []string) error {
	if len(args) > 0 {
		// Flag parsing stops at the first argument that is not a flag, so
		// every flag after it would be silently dropped.
		return fmt.Errorf("unexpected argument %q: pnetbench takes flags only", args[0])
	}
	if set["fingerprint-epoch"] && o.fpEpoch <= 0 {
		return fmt.Errorf("-fingerprint-epoch must be positive, got %d", o.fpEpoch)
	}
	if set["fingerprint-epoch"] && !o.fingerprint {
		return errors.New("-fingerprint-epoch requires -fingerprint")
	}
	if o.fingerprint && o.metrics == "" && o.report == "" {
		return errors.New("-fingerprint needs a sink for the checkpoints: add -metrics or -report")
	}
	switch o.format {
	case "table", "json":
	default:
		return fmt.Errorf("unknown -format %q (accepted: table, json)", o.format)
	}
	if o.workers < 0 {
		return fmt.Errorf("-workers must be >= 0, got %d", o.workers)
	}
	o.params = exp.Params{Seed: o.seed}
	switch o.scale {
	case "small":
		o.params.Scale = exp.ScaleSmall
	case "full":
		o.params.Scale = exp.ScaleFull
	default:
		return fmt.Errorf("unknown scale %q", o.scale)
	}
	// Each output is opened on its own, so two flags naming one file would
	// silently overwrite each other.
	if o.metrics != "" && o.report != "" && filepath.Clean(o.metrics) == filepath.Clean(o.report) {
		return fmt.Errorf("-metrics and -report both write to %q: give each its own file", o.metrics)
	}
	switch o.expID {
	case "":
	case "all":
		o.toRun = exp.All()
	default:
		e, ok := exp.ByID(o.expID)
		if !ok {
			return fmt.Errorf("unknown experiment %q (pnetbench alone lists them)", o.expID)
		}
		o.toRun = []exp.Experiment{e}
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("pnetbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard) // a parse error is reported below, in one line
	fs.StringVar(&o.expID, "exp", "", "experiment id to run, or 'all'")
	fs.StringVar(&o.scale, "scale", "small", "small | full")
	fs.Int64Var(&o.seed, "seed", 1, "random seed")
	fs.StringVar(&o.format, "format", "table", "table | json")
	fs.StringVar(&o.metrics, "metrics", "", "stream telemetry records as JSONL to this file ('-' = stdout)")
	fs.BoolVar(&o.spans, "spans", false, "record latency attribution spans (pnetstat attribution)")
	fs.BoolVar(&o.fingerprint, "fingerprint", false, "fold every fired event into its engine's determinism hash chain (pnetstat summary / divergence); needs -metrics or -report")
	fs.Int64Var(&o.fpEpoch, "fingerprint-epoch", 0, "events per fingerprint checkpoint (0 = default 65536; 1 writes one record per event, the per-event trace pnetstat divergence and export-trace read); requires -fingerprint")
	fs.StringVar(&o.report, "report", "", "write a RunSummary JSON for pnetstat to this file")
	fs.StringVar(&o.pprof, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
	fs.IntVar(&o.workers, "workers", 0, "max concurrent sweep cells (0 = GOMAXPROCS, 1 = serial); results are identical either way")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fs.Usage()
			return 0
		}
		fmt.Fprintf(stderr, "pnetbench: %v\n", err)
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := o.validate(set, fs.Args()); err != nil {
		fmt.Fprintf(stderr, "pnetbench: %v\n", err)
		return 2
	}

	if o.toRun == nil {
		fmt.Fprintln(stdout, "experiments:")
		for _, e := range exp.All() {
			fmt.Fprintf(stdout, "  %-8s %s\n", e.ID, e.Title)
		}
		fmt.Fprintln(stdout, "\nrun one with -exp <id>, or -exp all")
		return 0
	}

	par.SetLimit(o.workers)
	if o.pprof != "" {
		go func() {
			if err := http.ListenAndServe(o.pprof, nil); err != nil {
				fmt.Fprintf(stderr, "pnetbench: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(stderr, "pnetbench: pprof on http://%s/debug/pprof/\n", o.pprof)
	}

	var collector *obs.Collector
	var aggr *report.Aggregator
	var metricsFile *os.File
	defer func() {
		// For the early returns; the success path has checked its Close.
		if metricsFile != nil {
			metricsFile.Close()
		}
	}()
	if o.metrics != "" || o.report != "" || o.spans || o.fingerprint {
		collector = obs.NewCollector()
		collector.Spans = o.spans
		collector.Fingerprint = o.fingerprint
		collector.FingerprintEpoch = o.fpEpoch
		if o.report != "" {
			// Samples reduce into the summary as they are taken, so -exp all
			// stays memory-bounded.
			aggr = report.NewAggregator()
			collector.Sink = aggr
		}
		// The stream must be wired before any network attaches, which
		// happens inside the experiments' Run. "-" is stdout, anything else
		// a file created here and closed at the end.
		switch o.metrics {
		case "":
		case "-":
			collector.StreamMetrics(stdout)
		default:
			f, err := os.Create(o.metrics)
			if err != nil {
				fmt.Fprintf(stderr, "pnetbench: %v\n", err)
				return 1
			}
			metricsFile = f
			collector.StreamMetrics(f)
		}
		o.params.Obs = collector
	}

	// Run header: how wide this run may fan out. Cell results are
	// bit-identical at any width, so the numbers are attribution for the
	// wall times below, never a caveat on the tables.
	effWorkers := par.Limit()
	fmt.Fprintf(stderr, "pnetbench: exp=%s scale=%s seed=%d workers=%d gomaxprocs=%d\n",
		o.expID, o.params.Scale, o.seed, effWorkers, runtime.GOMAXPROCS(0))

	runStart := time.Now()
	for _, e := range o.toRun {
		start := time.Now()
		table := e.Run(o.params)
		elapsed := time.Since(start)
		if o.format == "json" {
			fmt.Fprintln(stdout, table.JSON(elapsed.Seconds()))
		} else {
			fmt.Fprintln(stdout, table.String())
		}
		fmt.Fprintf(stderr, "pnetbench: %s in %v\n", e.ID, elapsed.Round(time.Millisecond))
	}

	fmt.Fprintf(stderr, "pnetbench: total wall time %v (workers=%d gomaxprocs=%d)\n",
		time.Since(runStart).Round(time.Millisecond), effWorkers, runtime.GOMAXPROCS(0))

	// Close before summarizing: it is what emits the closing engine
	// records and the partial fingerprint checkpoints.
	if err := collector.Close(); err != nil {
		fmt.Fprintf(stderr, "pnetbench: telemetry: %v\n", err)
		return 1
	}
	if aggr != nil {
		summary := aggr.Summarize(report.Meta{
			Exp:        o.expID,
			Scale:      o.params.Scale.String(),
			Seed:       o.seed,
			Created:    time.Now().UTC().Format(time.RFC3339),
			Workers:    effWorkers,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		})
		b, err := json.MarshalIndent(summary, "", "  ")
		if err == nil {
			err = os.WriteFile(o.report, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "pnetbench: report: %v\n", err)
			return 1
		}
	}
	if metricsFile != nil {
		if err := metricsFile.Close(); err != nil {
			fmt.Fprintf(stderr, "pnetbench: telemetry: %v\n", err)
			return 1
		}
	}
	return 0
}
