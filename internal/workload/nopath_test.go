package workload

import (
	"strings"
	"testing"

	"pnet/internal/topo"
	"pnet/internal/traces"
)

// hostZeroCut is a small parallel Jellyfish whose host 0 has every uplink
// down, so no flow from host 0 can start.
func hostZeroCut() *topo.Topology {
	tp := *topo.ScaledJellyfish(8, 2, 100, 3).ParallelHomo
	tp.G = tp.G.Clone()
	for _, l := range tp.Uplinks[0] {
		tp.G.SetLinkUp(l, false)
	}
	return &tp
}

// checkNoPath: a runner whose flow cannot start returns an error naming
// the flow and the missing path. Each runner used to panic instead.
func checkNoPath(t *testing.T, err error, want string) {
	t.Helper()
	if err == nil {
		t.Fatal("no error from a run with a host that has no path")
	}
	if msg := err.Error(); !strings.Contains(msg, want) || !strings.Contains(msg, "no ECMP path") {
		t.Errorf("error %q, want one naming %q and the missing path", msg, want)
	}
}

func TestRunIncastNoPathIsError(t *testing.T) {
	tp := hostZeroCut()
	d := newTestDriver(t, tp)
	// Every host takes part, so host 0 sends or receives in round one.
	_, err := RunIncast(d, IncastConfig{
		FanIn: len(tp.Hosts) - 1, BlockBytes: 10_000, Rounds: 2,
		Sel: Selection{Policy: ECMP}, Seed: 1,
	})
	checkNoPath(t, err, "incast response from host ")
}

func TestRunTraceNoPathIsError(t *testing.T) {
	d := newTestDriver(t, hostZeroCut())
	_, err := RunTrace(d, TraceConfig{
		CDF: traces.WebServer, LoopsPerHost: 1, FlowsPerLoop: 2, SizeCap: 10_000,
		Sel: Selection{Policy: ECMP}, Seed: 1,
	})
	checkNoPath(t, err, "trace flow from host 0 to host ")
}

func TestRunShuffleNoPathIsError(t *testing.T) {
	tp := hostZeroCut()
	d := newTestDriver(t, tp)
	// Every host is a worker, so host 0 moves a block in one stage or
	// another.
	_, err := RunShuffle(d, ShuffleConfig{
		Mappers: len(tp.Hosts) / 2, Reducers: len(tp.Hosts) / 2,
		TotalBytes: 64_000, BlockBytes: 8_000, Concurrency: 2,
		Sel: Selection{Policy: ECMP}, Seed: 1,
	})
	checkNoPath(t, err, "shuffle transfer from node ")
}
