// Command pnetbench regenerates the tables and figures of "Scaling beyond
// packet switch limits with multiple dataplanes" (CoNEXT '22).
//
// Usage:
//
//	pnetbench -list
//	pnetbench -exp fig6a
//	pnetbench -exp all -scale full -seed 7
//	pnetbench -exp fig6c -metrics m.jsonl -trace t.jsonl
//	pnetbench -exp faults -chaos "plane:0@10ms+20ms; poisson:mttf=50ms,mttr=5ms,until=100ms"
//
// Each experiment prints the rows/series of the corresponding paper
// artifact. The default "small" scale shrinks topologies and flow sizes
// to finish quickly; "-scale full" runs the paper's sizes (some take
// hours, like the original artifact). See EXPERIMENTS.md for the mapping
// and recorded results.
//
// Telemetry: -metrics streams JSONL samples (link queue depth and
// utilization, per-plane bytes, engine event rate, flow and solver
// records, final counter snapshot); -trace streams per-packet lifecycle
// events (enqueue/drop/trim/deliver), optionally narrowed to specific
// flows with -trace-flow. Both accept a file path or "-" for stdout.
// -report writes a RunSummary JSON (FCT percentiles, plane shares,
// solver/engine aggregates) for pnetstat summary/diff with no JSONL
// round-trip. -spans turns on latency attribution (per-flow FCT
// decomposition into queueing/serialization/propagation/stall
// components) and the event-loop flight recorder behind `pnetstat
// attribution` and `pnetstat profile`. -fingerprint folds every fired
// event into rolling per-plane determinism hash chains, checkpointed
// every -fingerprint-epoch events into the metrics stream / report;
// -fingerprint-journal additionally streams one record per folded event
// for `pnetstat divergence` to localize the exact first divergent
// event. -pprof serves net/http/pprof on the given address for live
// profiling of long runs. See README.md "Telemetry" and "Analyzing
// runs" for the schemas.
//
// Parallelism: -workers N caps how many independent sweep cells run
// concurrently (0 = one per core, 1 = serial). Every cell owns its own
// engine and RNG, so tables are byte-identical at any worker count; the
// run header and footer on stderr record the effective width and total
// wall time. See DESIGN.md "Parallel execution".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"pnet/internal/chaos"
	"pnet/internal/exp"
	"pnet/internal/obs"
	"pnet/internal/par"
	"pnet/internal/report"
	"pnet/internal/sim"
)

func main() {
	var (
		expID   = flag.String("exp", "", "experiment id to run, or 'all'")
		scale   = flag.String("scale", "small", "small | full")
		seed    = flag.Int64("seed", 1, "random seed")
		list    = flag.Bool("list", false, "list experiments")
		timing  = flag.Bool("time", true, "print wall-clock time per experiment")
		format  = flag.String("format", "table", "table | csv | json")
		metrics = flag.String("metrics", "", "stream metric samples as JSONL to this file ('-' = stdout)")
		trace   = flag.String("trace", "", "stream packet lifecycle events as JSONL to this file ('-' = stdout); -trace-flow narrows it to chosen flows")
		traceFl = flag.String("trace-flow", "", "comma-separated flow IDs to trace; other flows' events are filtered at the sink (requires -trace)")
		spans   = flag.Bool("spans", false, "record latency attribution spans and the event-loop profile (pnetstat attribution / profile)")
		fprint  = flag.Bool("fingerprint", false, "fold every fired event into per-plane determinism hash chains (pnetstat fingerprint / divergence); needs -metrics or -report")
		fpEpoch = flag.Int64("fingerprint-epoch", 0, "events per fingerprint checkpoint (0 = default 65536); requires -fingerprint")
		fpJourn = flag.String("fingerprint-journal", "", "stream one JSONL record per folded event to this file ('-' = stdout) for pnetstat divergence -events-*; requires -fingerprint")
		sample  = flag.Duration("sample", 0, "sampling interval for -metrics/-report (default 10us of sim time)")
		reportF = flag.String("report", "", "write a RunSummary JSON for pnetstat to this file")
		chaosF  = flag.String("chaos", "", "fault script for fault-aware experiments ('help' prints the syntax)")
		pprof   = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		workers = flag.Int("workers", 0, "max concurrent sweep cells (0 = GOMAXPROCS, 1 = serial); results are identical either way")
	)
	flag.Parse()

	// An explicit -sample must be positive; silently falling back to the
	// default would make the printed series lie about their cadence.
	sampleSet, fpEpochSet := false, false
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "sample":
			sampleSet = true
		case "fingerprint-epoch":
			fpEpochSet = true
		}
	})
	if sampleSet && *sample <= 0 {
		fmt.Fprintf(os.Stderr, "pnetbench: -sample must be positive, got %v\n", *sample)
		os.Exit(2)
	}
	if err := validateFingerprintFlags(*fprint, *fpEpoch, fpEpochSet, *fpJourn, *metrics, *reportF); err != nil {
		fmt.Fprintf(os.Stderr, "pnetbench: %v\n", err)
		os.Exit(2)
	}
	if err := validateFormat(*format); err != nil {
		fmt.Fprintf(os.Stderr, "pnetbench: %v\n", err)
		os.Exit(2)
	}

	// Before the -list/empty-exp early return, so a bare
	// `pnetbench -chaos help` prints the syntax, not the experiment list.
	if *chaosF == "help" {
		fmt.Println(chaos.SpecSyntax)
		return
	}

	if *list || *expID == "" {
		fmt.Println("experiments:")
		for _, e := range exp.All() {
			fmt.Printf("  %-8s %s\n", e.ID, e.Title)
		}
		if *expID == "" && !*list {
			fmt.Println("\nrun one with -exp <id>, or -exp all")
		}
		return
	}

	chaosSpec, err := chaos.ParseSpec(*chaosF)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnetbench: %v\n", err)
		os.Exit(2)
	}

	if *workers < 0 {
		fmt.Fprintf(os.Stderr, "pnetbench: -workers must be >= 0, got %d\n", *workers)
		os.Exit(2)
	}
	par.SetLimit(*workers)

	params := exp.Params{Seed: *seed, Chaos: chaosSpec, Workers: *workers}
	switch *scale {
	case "small":
		params.Scale = exp.ScaleSmall
	case "full":
		params.Scale = exp.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "pnetbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	if *pprof != "" {
		go func() {
			if err := http.ListenAndServe(*pprof, nil); err != nil {
				fmt.Fprintf(os.Stderr, "pnetbench: pprof server: %v\n", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "pnetbench: pprof on http://%s/debug/pprof/\n", *pprof)
	}

	var collector *obs.Collector
	var aggr *report.Aggregator
	var closers []io.Closer
	if *traceFl != "" && *trace == "" {
		fmt.Fprintf(os.Stderr, "pnetbench: -trace-flow requires -trace\n")
		os.Exit(2)
	}
	if *metrics != "" || *trace != "" || *reportF != "" || *spans || *fprint {
		collector = obs.NewCollector()
		if *sample > 0 {
			collector.Interval = sim.Time(sample.Nanoseconds()) * sim.Nanosecond
		}
		if *spans {
			collector.Spans = true
			collector.Profile = true
		}
		if *fprint {
			collector.Fingerprint = true
			collector.FingerprintEpoch = *fpEpoch
			// The journal stream must be wired before any network
			// attaches, which happens inside the experiments' Run.
			if w, c := openSink(*fpJourn); w != nil {
				collector.StreamFingerprintJournal(w)
				if c != nil {
					closers = append(closers, c)
				}
			}
		}
		if *traceFl != "" {
			ids, err := parseFlowIDs(*traceFl)
			if err != nil {
				fmt.Fprintf(os.Stderr, "pnetbench: -trace-flow: %v\n", err)
				os.Exit(2)
			}
			collector.TraceFlows = ids
		}
		if *reportF != "" {
			// Samples reduce into the summary as they are taken; the
			// samplers retain nothing, so -exp all stays memory-bounded.
			aggr = report.NewAggregator()
			collector.Sink = aggr
			collector.DropSamples = true
		}
		if w, c := openSink(*metrics); w != nil {
			collector.StreamMetrics(w)
			if c != nil {
				closers = append(closers, c)
			}
		}
		if w, c := openSink(*trace); w != nil {
			collector.StreamTrace(w)
			if c != nil {
				closers = append(closers, c)
			}
		}
		params.Obs = collector
	}

	var toRun []exp.Experiment
	if *expID == "all" {
		toRun = exp.All()
	} else {
		e, ok := exp.ByID(*expID)
		if !ok {
			fmt.Fprintf(os.Stderr, "pnetbench: unknown experiment %q (use -list)\n", *expID)
			os.Exit(2)
		}
		toRun = []exp.Experiment{e}
	}

	// Run header: how wide this run may fan out. Cell results are
	// bit-identical at any width, so the numbers are attribution for the
	// wall times below, never a caveat on the tables.
	effWorkers := par.Workers(*workers)
	fmt.Fprintf(os.Stderr, "pnetbench: exp=%s scale=%s seed=%d workers=%d gomaxprocs=%d\n",
		*expID, params.Scale, *seed, effWorkers, runtime.GOMAXPROCS(0))
	if collector != nil {
		// The effective sampling cadence, so nobody has to
		// reverse-engineer it from the t_ps deltas in the stream.
		fmt.Fprintf(os.Stderr, "pnetbench: telemetry sampling every %v of sim time (doubles every 4096 ticks)\n",
			collector.EffectiveInterval())
	}

	runStart := time.Now()
	for _, e := range toRun {
		start := time.Now()
		table := e.Run(params)
		elapsed := time.Since(start)
		switch *format {
		case "csv":
			fmt.Printf("# %s: %s\n%s", table.ID, table.Title, table.CSV())
			if *timing {
				// Trailing comment row keeps the CSV parseable while
				// preserving the timing line.
				fmt.Printf("# %s in %v at scale %s\n", e.ID, elapsed.Round(time.Millisecond), params.Scale)
			}
			fmt.Println()
		case "json":
			fmt.Println(table.JSON(elapsed.Seconds()))
		default:
			fmt.Println(table.String())
			if *timing {
				fmt.Printf("(%s in %v at scale %s)\n\n", e.ID, elapsed.Round(time.Millisecond), params.Scale)
			}
		}
	}

	fmt.Fprintf(os.Stderr, "pnetbench: total wall time %v (workers=%d gomaxprocs=%d)\n",
		time.Since(runStart).Round(time.Millisecond), effWorkers, runtime.GOMAXPROCS(0))

	if *reportF != "" {
		// Summarize before Close: the collector's samplers and records
		// stay valid, and the summary does not depend on the streams.
		summary := aggr.Summarize(collector, report.Meta{
			Exp:        *expID,
			Scale:      params.Scale.String(),
			Seed:       *seed,
			Created:    time.Now().UTC().Format(time.RFC3339),
			Workers:    effWorkers,
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		})
		if summary.Profile != nil {
			// Stamp the run's actual pool occupancy into the profile so
			// `pnetstat profile` can say how much of the machine the
			// cell-level parallelism used.
			st := par.PoolStats()
			summary.Profile.PoolLimit = st.Limit
			summary.Profile.PoolPeak = st.Peak
			summary.Profile.PoolTasks = st.Tasks
		}
		b, err := json.MarshalIndent(summary, "", "  ")
		if err == nil {
			err = os.WriteFile(*reportF, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "pnetbench: report: %v\n", err)
			os.Exit(1)
		}
	}
	if collector != nil {
		if err := collector.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "pnetbench: telemetry: %v\n", err)
			os.Exit(1)
		}
	}
	for _, c := range closers {
		if err := c.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "pnetbench: telemetry: %v\n", err)
			os.Exit(1)
		}
	}
}

// validateFingerprintFlags rejects -fingerprint combinations that would
// silently do nothing or lie about cadence. epochSet says whether
// -fingerprint-epoch appeared on the command line at all (the zero
// default is valid and means "use the built-in cadence").
func validateFingerprintFlags(fingerprint bool, epoch int64, epochSet bool, journal, metrics, reportF string) error {
	if epochSet && epoch <= 0 {
		return fmt.Errorf("-fingerprint-epoch must be positive, got %d", epoch)
	}
	if epochSet && !fingerprint {
		return fmt.Errorf("-fingerprint-epoch requires -fingerprint")
	}
	if journal != "" && !fingerprint {
		return fmt.Errorf("-fingerprint-journal requires -fingerprint")
	}
	if fingerprint && metrics == "" && reportF == "" {
		return fmt.Errorf("-fingerprint needs a sink for the checkpoints: add -metrics or -report")
	}
	return nil
}

// validateFormat rejects a -format the output switch would silently
// print as tables.
func validateFormat(format string) error {
	switch format {
	case "table", "csv", "json":
		return nil
	}
	return fmt.Errorf("unknown -format %q (accepted: table, csv, json)", format)
}

// parseFlowIDs parses the -trace-flow comma list.
func parseFlowIDs(s string) ([]int64, error) {
	var out []int64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		id, err := strconv.ParseInt(part, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad flow id %q", part)
		}
		out = append(out, id)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no flow ids in %q", s)
	}
	return out, nil
}

// openSink resolves a -metrics/-trace destination: "" = off, "-" =
// stdout (not closed), anything else = created file (returned as closer).
func openSink(path string) (io.Writer, io.Closer) {
	switch path {
	case "":
		return nil, nil
	case "-":
		return os.Stdout, nil
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "pnetbench: %v\n", err)
		os.Exit(1)
	}
	return f, f
}
