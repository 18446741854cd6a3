package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"pnet/internal/par"
)

// tinySizes shrinks every cell so that all four workloads run end to
// end in a few seconds. No test asserts a wall time.
var tinySizes = sizes{
	ftArity: 4, ftPlanes: 2,
	ftKs:  []int{1, 2, 4},
	lpJF:  jellyfish{8, 3, 2, 2},
	lpJFK: 4,

	bulkJF:    jellyfish{8, 3, 2, 2},
	bulkBytes: 100_000,

	rpcJF:          jellyfish{8, 3, 2, 2},
	rpcSmallRounds: 5,
	rpcLargeRounds: 2,
	rpcLargeLoops:  2,

	suite: []string{"fig10"},
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{5, 1, 4, 2, 3})
	want := summary{Median: 3, Min: 1, Q1: 2, Q3: 4, Max: 5, N: 5}
	if s != want {
		t.Fatalf("summarize = %+v, want %+v", s, want)
	}
	if got := s.spread(); got != 2.0/3 {
		t.Errorf("spread = %v, want 2/3", got)
	}
	// Even count: quartiles interpolate between ranks.
	s = summarize([]float64{1, 2, 3, 4})
	if s.Median != 2.5 || s.Q1 != 1.75 || s.Q3 != 3.25 {
		t.Errorf("even sample: %+v", s)
	}
	if s := summarize([]float64{7}); s.Median != 7 || s.Q1 != 7 || s.Q3 != 7 || s.N != 1 {
		t.Errorf("single sample: %+v", s)
	}
	if s := summarize(nil); s.N != 0 || s.spread() != 0 {
		t.Errorf("empty sample: %+v", s)
	}
}

func TestSelfTimeAndCoverage(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{Name: "sim.run", Start: 0, End: 100 * ms, Parent: -1},
		{Name: "tcp.start", Start: 10 * ms, End: 30 * ms, Parent: 0},
		{Name: "core.paths", Start: 15 * ms, End: 20 * ms, Parent: 1},
		{Name: "tcp.start", Start: 50 * ms, End: 60 * ms, Parent: 0},
		{Name: "topo.build", Start: 120 * ms, End: 140 * ms, Parent: -1},
	}
	self := selfTimes(spans)
	want := map[string]float64{"sim.run": 0.070, "tcp.start": 0.025, "core.paths": 0.005, "topo.build": 0.020}
	for name, w := range want {
		if got := self[name]; got < w-1e-12 || got > w+1e-12 {
			t.Errorf("self time of %s = %v, want %v", name, got, w)
		}
	}
	// Self times partition the top-level spans: 100 ms + 20 ms.
	var sum float64
	for _, v := range self {
		sum += v
	}
	if sum < 0.120-1e-12 || sum > 0.120+1e-12 {
		t.Errorf("self times sum to %v, want 0.120", sum)
	}
	if got := coverage(spans, 150*ms); got != 0.8 {
		t.Errorf("coverage = %v, want 0.8", got)
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.cell = "c"
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	inner()
	outer()
	after := tr.begin("after")
	after()
	if len(tr.spans) != 3 || tr.spans[0].Parent != -1 || tr.spans[1].Parent != 0 || tr.spans[2].Parent != -1 {
		t.Fatalf("parents wrong: %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.End < s.Start || s.Cell != "c" {
			t.Errorf("bad span %+v", s)
		}
	}
	off := &tracer{}
	off.begin("x")()
	off.count("n", 1)
	if len(off.spans) != 0 || off.counts != nil || off.mallocs() != 0 {
		t.Errorf("the zero tracer recorded something: %+v", off)
	}
}

func TestGoldenMismatchFailsCell(t *testing.T) {
	ref := []cell{
		{ID: "a", Num: map[string]float64{"lambda": 0.5, "phases": 10}},
		{ID: "b", Rows: [][]string{{"serial", "1.00"}}},
	}
	same := []cell{
		{ID: "a", Num: map[string]float64{"lambda": 0.5, "phases": 10}},
		{ID: "b", Rows: [][]string{{"serial", "1.00"}}},
	}
	var r result
	r.check("pass", same, ref)
	if r.Attempted != 2 || r.Failed != 0 {
		t.Fatalf("equal cells: attempted %d failed %d", r.Attempted, r.Failed)
	}
	for name, got := range map[string][]cell{
		"number differs": {{ID: "a", Num: map[string]float64{"lambda": 0.5000001, "phases": 10}}, same[1]},
		"value missing":  {{ID: "a", Num: map[string]float64{"lambda": 0.5}}, same[1]},
		"value added":    {{ID: "a", Num: map[string]float64{"lambda": 0.5, "phases": 10, "x": 1}}, same[1]},
		"row differs":    {same[0], {ID: "b", Rows: [][]string{{"serial", "1.01"}}}},
		"cell errored":   {same[0], {ID: "b", Err: "stall", Rows: ref[1].Rows}},
		"cell missing":   {same[0]},
	} {
		var r result
		r.check("pass", got, ref)
		if r.Attempted != 2 || r.Failed != 1 || len(r.Failures) != 1 {
			t.Errorf("%s: attempted %d failed %d %v, want 2 and 1", name, r.Attempted, r.Failed, r.Failures)
		}
	}
}

func TestGoldenFileRoundTrip(t *testing.T) {
	g := goldenFile{}
	cells := []cell{{ID: "a", Num: map[string]float64{"lambda": 1.0 / 3, "mean_ps": 123456789012}}}
	g.set(2, "lp_solve", cells)
	path := filepath.Join(t.TempDir(), "golden.json")
	if err := g.write(path); err != nil {
		t.Fatal(err)
	}
	back, err := loadGolden(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := back.cells(2, "lp_solve")
	if !ok || diffCells(got[0], cells[0]) != "" {
		t.Fatalf("round trip changed the cells: %+v", got)
	}
	if _, ok := back.cells(3, "lp_solve"); ok {
		t.Error("seed 3 was never recorded")
	}
}

func TestVerdict(t *testing.T) {
	steady := func(med float64) summary {
		return summary{Median: med, Min: med * 0.99, Q1: med * 0.995, Q3: med * 1.005, Max: med * 1.01, N: 5}
	}
	noisy := func(med float64) summary {
		return summary{Median: med, Min: med * 0.8, Q1: med * 0.9, Q3: med * 1.1, Max: med * 1.2, N: 5}
	}
	for _, c := range []struct {
		name string
		a, b summary
		want string
	}{
		{"same", steady(1), steady(1.02), "ok"},
		{"beyond the bound", steady(1), steady(1.15), "worse"},
		{"better", steady(1), steady(0.7), "ok"},
		{"noisy and overlapping", noisy(1), noisy(1.15), "unresolved"},
		{"noisy but every run better", noisy(1), noisy(0.5), "ok"},
		{"noisy but every run worse", noisy(1), noisy(2), "worse"},
	} {
		if got := verdict(c.a, c.b, 0.10); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	base := result{Name: "lp_solve", Wall: one(1), CPU: one(1), Setup: 1, Attempted: 10}
	slower, failing := base, base
	slower.Wall = one(1.4)
	failing.Failed, failing.FailedShare = 1, 0.1
	for _, c := range []struct {
		name string
		b    result
		want bool
	}{{"same", base, false}, {"slower", slower, true}, {"failing", failing, true}} {
		var out bytes.Buffer
		got := compare(&out, resultsFile{Workloads: []result{base}}, resultsFile{Workloads: []result{c.b}})
		if got != c.want {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, got, c.want, out.String())
		}
	}
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	bj := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not fit the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}

	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		checkName(w.name)
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the harness %q: %q", i, bj.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.name)
		}
	}
	sameDefs := func(what string, file, harness []metricDef) {
		if len(file) != len(harness) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the harness %d", what, len(file), len(harness))
		}
		for i, d := range harness {
			checkName(d.Name)
			if !unit.MatchString(d.Unit) {
				t.Errorf("%s: unit %q does not fit the contract", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				t.Errorf("%s: better = %q", d.Name, d.Better)
			}
			if file[i] != d {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the harness %+v", what, i, file[i], d)
			}
		}
	}
	sameDefs("end_to_end", bj.EndToEnd, endToEndDefs)
	sameDefs("per_layer", bj.PerLayer, layerMetricDefs)
	for _, d := range endToEndDefs {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", bj.Paths)
	}
}

// TestWorkloadsEndToEnd runs all four workloads, shrunk, through the
// same path main takes: cold, timed and traced passes, the checks, the
// per-layer metrics, the span file and the contract's JSON line.
func TestWorkloadsEndToEnd(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	cli, err := buildCLI(root, tmp)
	if err != nil {
		t.Fatal(err)
	}
	layerNames := map[string]bool{}
	for _, d := range layerMetricDefs {
		layerNames[d.Name] = true
	}
	cfg := config{seed: 3, passes: 1, trace: true, sz: tinySizes, cli: cli, tmp: tmp}
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			// Every pass must stay on one goroutine.
			probe := w
			probe.run = func(e *env) []cell {
				if par.Limit() != 1 {
					t.Errorf("par.Limit() = %d during a pass, want 1", par.Limit())
				}
				return w.run(e)
			}
			r := runWorkload(probe, cfg)
			if r.Failed != 0 || r.Attempted == 0 || r.Passes != 1 {
				t.Fatalf("attempted %d, failed %d, passes %d: %v", r.Attempted, r.Failed, r.Passes, r.Failures)
			}
			if r.Wall.Median <= 0 || r.CPU.Median <= 0 || r.Setup <= 0 {
				t.Errorf("an end-to-end metric is 0: wall %v cpu %v setup %v", r.Wall.Median, r.CPU.Median, r.Setup)
			}
			if len(r.Layers) != len(layerNames) {
				t.Errorf("%d per-layer metrics emitted, BENCHMARK.json lists %d", len(r.Layers), len(layerNames))
			}
			for name := range r.Layers {
				if !layerNames[name] {
					t.Errorf("per-layer metric %q is emitted but not defined", name)
				}
			}
			// A child's span is a hair wider than its spawn-to-exit time.
			if c := r.Layers["trace.coverage"]; c <= 0 || c > 1.001 {
				t.Errorf("trace.coverage = %v", c)
			}
			if len(r.spans) == 0 {
				t.Fatal("the traced pass recorded no spans")
			}

			path := filepath.Join(tmp, "spans."+w.name+".json")
			if err := writeSpans(path, w.name, r.spans); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &tr); err != nil || len(tr.TraceEvents) != len(r.spans) {
				t.Fatalf("span file: %v, %d events for %d spans", err, len(tr.TraceEvents), len(r.spans))
			}

			for _, trace := range []bool{false, true} {
				var out bytes.Buffer
				printResult(&out, r, config{seed: cfg.seed, trace: trace})
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var last struct {
					Correct   *bool `json:"correct"`
					Attempted int   `json:"attempted"`
					Failed    int   `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				want := endToEndDefs
				if trace {
					want = layerMetricDefs
				}
				if last.Correct == nil || !*last.Correct || last.Attempted != r.Attempted || len(last.Metrics) != len(want) {
					t.Errorf("trace %v: last line %s", trace, lines[len(lines)-1])
				}
				for _, d := range want {
					if m, ok := last.Metrics[d.Name]; !ok || m.Value == nil || m.Unit != d.Unit {
						t.Errorf("trace %v: metric %s missing or wrong in the last line", trace, d.Name)
					}
				}
			}
		})
	}
	if par.Limit() != par.Workers(0) {
		t.Errorf("par limit left at %d after the workloads, want the default %d", par.Limit(), par.Workers(0))
	}
}

// TestNoShardingAPI keeps the benchmark compiling on both sides of a
// change that deletes the sharded engine.
func TestNoShardingAPI(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	banned := regexp.MustCompile(`Shards|HostShards|Placement|pdes`)
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if m := banned.Find(b); m != nil {
			t.Errorf("%s references %s", f, m)
		}
	}
}
