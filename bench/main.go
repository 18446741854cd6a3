// Command bench is the repository's benchmark: four closed, fixed-size
// workloads over the simulator's two hot paths (the LP solver and the
// packet engine) and over the built CLI, measured end to end with
// tracing off and layer by layer from one traced pass. README.md says
// what each workload and metric is for; BENCHMARK.json is the contract
// it is run under.
//
//	go run -C bench . [-workload name|all] [-seed N] [-seconds S] [-trace 0|1] [-out dir]
//	go run -C bench . -compare a/results.json b/results.json
//	go run -C bench . -update-golden
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// minPasses is the fewest timed passes a run reports a median of.
const minPasses = 3

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "all", "workload to run, or all")
		seed    = fs.Int64("seed", 1, "seed every input is generated from")
		seconds = fs.Float64("seconds", 12, "timed passes repeat until this many seconds are measured (never fewer than 3 passes)")
		trace   = fs.Int("trace", 1, "1 adds the traced pass and reports the per-layer metrics; 0 reports the end-to-end metrics only")
		out     = fs.String("out", "", "directory for results.json and the span files (default .bench_build/out)")
		cmp     = fs.Bool("compare", false, "compare two results.json files given as arguments; exit 1 if the second is worse")
		update  = fs.Bool("update-golden", false, "record golden.json from a cold pass on each golden seed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}

	if *cmp {
		if fs.NArg() != 2 {
			return fail(fmt.Errorf("-compare takes two results.json paths"))
		}
		a, err := readResults(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		b, err := readResults(fs.Arg(1))
		if err != nil {
			return fail(err)
		}
		if compare(stdout, a, b) {
			return 1
		}
		return 0
	}

	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		selected = []benchWorkload{w}
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	buildDir := filepath.Join(root, ".bench_build")
	if *out == "" {
		*out = filepath.Join(buildDir, "out")
	}
	for _, dir := range []string{buildDir, *out} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fail(err)
		}
	}
	goldenPath := filepath.Join(root, "bench", "golden.json")
	golden, err := loadGolden(goldenPath)
	if err != nil && !*update {
		return fail(err)
	}

	cfg := config{seed: *seed, seconds: *seconds, passes: minPasses, trace: *trace != 0, sz: benchSizes, golden: golden}
	mach := describeMachine(root, cfg)
	needCLI := *update
	for _, w := range selected {
		needCLI = needCLI || w.children
	}
	if needCLI {
		start := time.Now()
		if cfg.cli, err = buildCLI(root, buildDir); err != nil {
			return fail(err)
		}
		mach.BuildS = time.Since(start).Seconds()
		if cfg.tmp, err = os.MkdirTemp(buildDir, "reports-"); err != nil {
			return fail(err)
		}
		defer os.RemoveAll(cfg.tmp)
	}

	if *update {
		golden = goldenFile{}
		for _, s := range goldenSeeds {
			cfg.seed = s
			for _, w := range workloads {
				fmt.Fprintf(stdout, "recording %s, seed %d\n", w.name, s)
				r := recordPass(w, cfg)
				if r.Failed > 0 {
					return fail(fmt.Errorf("%s, seed %d: %s", w.name, s, strings.Join(r.Failures, "; ")))
				}
				golden.set(s, w.name, r.cold)
			}
		}
		if err := golden.write(goldenPath); err != nil {
			return fail(err)
		}
		return 0
	}

	rf := resultsFile{Machine: mach}
	for _, w := range selected {
		r := runWorkload(w, cfg)
		rf.Workloads = append(rf.Workloads, r)
		if cfg.trace {
			if err := writeSpans(filepath.Join(*out, "spans."+w.name+".json"), w.name, r.spans); err != nil {
				return fail(err)
			}
		}
		printResult(stdout, r, cfg)
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(*out, "results.json"), append(b, '\n'), 0o644)
	}
	if err != nil {
		return fail(err)
	}
	return 0
}

// findRoot walks up from the working directory to the repository root:
// the directory that holds both this benchmark and the CLI it builds.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		_, errBench := os.Stat(filepath.Join(dir, "bench", "go.mod"))
		_, errCLI := os.Stat(filepath.Join(dir, "cmd", "pnetbench"))
		if errBench == nil && errCLI == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no repository root (bench/ beside cmd/pnetbench) above the working directory")
		}
		dir = parent
	}
}

// buildCLI builds pnetbench from source into the build directory.
func buildCLI(root, buildDir string) (string, error) {
	cli := filepath.Join(buildDir, "pnetbench")
	cmd := exec.Command("go", "build", "-o", cli, "./cmd/pnetbench")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/pnetbench: %v\n%s", err, out)
	}
	return cli, nil
}

func describeMachine(root string, cfg config) machine {
	m := machine{
		CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go: runtime.Version(), Commit: "unknown", Seed: cfg.seed, Seconds: cfg.seconds,
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// A checkout need not be a git repository; the commit is then unknown.
	if b, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		m.Commit = strings.TrimSpace(string(b))
	}
	return m
}

// printResult prints every metric by name with its unit, then the one
// JSON line the benchmark contract asks for: the end-to-end metrics
// without tracing, the per-layer metrics with it.
func printResult(out io.Writer, r result, cfg config) {
	fmt.Fprintf(out, "== %s: seed %d, %d timed passes", r.Name, cfg.seed, r.Passes)
	if r.Golden {
		fmt.Fprint(out, ", checked against golden.json")
	} else {
		fmt.Fprint(out, ", checked against the cold pass")
	}
	fmt.Fprintln(out, " ==")
	row := func(name string, s summary) {
		fmt.Fprintf(out, "  %-12s %10.4f s   min %.4f  q1 %.4f  q3 %.4f  max %.4f  n %d\n",
			name, s.Median, s.Min, s.Q1, s.Q3, s.Max, s.N)
	}
	row("wall_s", r.Wall)
	row("cpu_s", r.CPU)
	fmt.Fprintf(out, "  %-12s %10.4f s   the cold first pass\n", "setup_s", r.Setup)
	fmt.Fprintf(out, "  %-12s %10.4f     %d of %d cells failed\n", "failed_share", r.FailedShare, r.Failed, r.Attempted)
	for _, f := range r.Failures {
		fmt.Fprintf(out, "    FAILED %s\n", f)
	}
	fmt.Fprint(out, "  work per pass:")
	keys := make([]string, 0, len(r.Work))
	for k := range r.Work {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(out, " %s=%.0f", k, r.Work[k])
	}
	fmt.Fprintln(out)

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	if cfg.trace {
		for _, d := range layerMetricDefs {
			v := r.Layers[d.Name]
			metrics[d.Name] = value{v, d.Unit}
			if v != 0 {
				fmt.Fprintf(out, "  %-28s %16.6g %s\n", d.Name, v, d.Unit)
			}
		}
	} else {
		metrics["wall_s"] = value{r.Wall.Median, "s"}
		metrics["cpu_s"] = value{r.CPU.Median, "s"}
		metrics["setup_s"] = value{r.Setup, "s"}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, metrics})
	if err != nil {
		panic(err) // numbers and strings only: cannot fail
	}
	fmt.Fprintf(out, "%s\n", line)
}
