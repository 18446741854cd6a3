package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// machine says where and how a results file was measured.
type machine struct {
	CPU        string  `json:"cpu"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Go         string  `json:"go"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	BuildS     float64 `json:"build_s"` // go build of the CLI: reported, not a metric
}

// resultsFile is results.json.
type resultsFile struct {
	Machine   machine  `json:"machine"`
	Workloads []result `json:"workloads"`
}

func readResults(path string) (resultsFile, error) {
	var rf resultsFile
	b, err := os.ReadFile(path)
	if err != nil {
		return rf, err
	}
	if err := json.Unmarshal(b, &rf); err != nil {
		return rf, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

// verdict judges one metric of a change b against its parent a, both
// lower-is-better. With runs steadier than the bound, b is worse when
// its median is beyond the bound. With runs that are not, nothing is
// decided unless the two sets of runs do not overlap at all.
func verdict(a, b summary, bound float64) string {
	worse := b.Median > a.Median*(1+bound)
	if a.spread() <= bound && b.spread() <= bound {
		if worse {
			return "worse"
		}
		return "ok"
	}
	switch {
	case b.Max < a.Min:
		return "ok"
	case worse && b.Min > a.Max:
		return "worse"
	}
	return "unresolved"
}

func one(v float64) summary { return summary{Median: v, Min: v, Q1: v, Q3: v, Max: v, N: 1} }

// compare prints, per workload and end-to-end metric, both sides'
// medians and quartiles and a verdict, and reports whether any metric
// got worse or any workload failed more.
func compare(out io.Writer, a, b resultsFile) (regressed bool) {
	fmt.Fprintf(out, "%-15s %-8s %30s %30s %8s  %s\n", "workload", "metric",
		"a: median [q1, q3] n", "b: median [q1, q3] n", "change", "verdict")
	for _, ra := range a.Workloads {
		var rb *result
		for i := range b.Workloads {
			if b.Workloads[i].Name == ra.Name {
				rb = &b.Workloads[i]
			}
		}
		if rb == nil {
			continue
		}
		sides := map[string][2]summary{
			"wall_s":  {ra.Wall, rb.Wall},
			"cpu_s":   {ra.CPU, rb.CPU},
			"setup_s": {one(ra.Setup), one(rb.Setup)},
		}
		for _, def := range endToEndDefs {
			s := sides[def.Name]
			v := verdict(s[0], s[1], def.Bound)
			regressed = regressed || v == "worse"
			show := func(s summary) string {
				return fmt.Sprintf("%.4f [%.4f, %.4f] %d", s.Median, s.Q1, s.Q3, s.N)
			}
			fmt.Fprintf(out, "%-15s %-8s %30s %30s %+7.1f%%  %s\n", ra.Name, def.Name,
				show(s[0]), show(s[1]), 100*(ratio(s[1].Median, s[0].Median)-1), v)
		}
		v := "ok"
		if rb.FailedShare > ra.FailedShare {
			v, regressed = "worse", true
		}
		fmt.Fprintf(out, "%-15s %-8s %30s %30s %8s  %s\n", ra.Name, "failed",
			fmt.Sprintf("%d of %d", ra.Failed, ra.Attempted),
			fmt.Sprintf("%d of %d", rb.Failed, rb.Attempted), "", v)
	}
	return regressed
}
