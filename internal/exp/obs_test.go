package exp

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"

	"pnet/internal/obs"
	"pnet/internal/par"
	"pnet/internal/sim"
	"pnet/internal/topo"
)

// TestFig6cTelemetry: observing an LP figure adds no simulation. fig6c
// run with every observer on streams Garg–Könemann solver records, each
// line valid JSON, and nothing an engine would write.
func TestFig6cTelemetry(t *testing.T) {
	var mbuf bytes.Buffer
	c := obs.NewCollector()
	c.Spans, c.Fingerprint, c.FingerprintEpoch = true, true, 1
	c.StreamMetrics(&mbuf)

	e, ok := ByID("fig6c")
	if !ok {
		t.Fatal("fig6c not registered")
	}
	table := e.Run(Params{Seed: 1, Obs: c})
	if len(table.Rows) == 0 {
		t.Fatal("fig6c returned no rows")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	for _, line := range splitLines(mbuf.String()) {
		if !json.Valid([]byte(line)) {
			t.Fatalf("bad metrics line %q", line)
		}
	}

	// Solver instrumentation: one record per (network, K) of the sweep,
	// with GK phase/iteration counts and wall time.
	solvers := records[obs.SolverRecord](t, &mbuf, obs.KindSolver)
	if len(solvers) == 0 {
		t.Fatal("no solver records")
	}
	for _, r := range solvers {
		if r.Exp != "fig6c" || r.Solver != "gk-fixed" {
			t.Errorf("solver record = %+v", r)
		}
		if r.Phases <= 0 || r.Iterations <= 0 || r.Attempts <= 0 {
			t.Errorf("empty GK stats: %+v", r)
		}
		if r.WallSec <= 0 {
			t.Errorf("no wall time: %+v", r)
		}
	}

	for _, kind := range []string{obs.KindLink, obs.KindPlane, obs.KindEngine, obs.KindFlow, obs.KindFingerprint} {
		if n := len(records[json.RawMessage](t, &mbuf, kind)); n != 0 {
			t.Errorf("%d %s records: observing fig6c simulated packets", n, kind)
		}
	}
}

// TestEveryLPSolveRecorded: every LP solve of a throughput figure writes
// one solver record with its wall time, whichever solver ran it: fig6b's
// five networks × three ECMP trials are 15 max-min solves, fig8b's eight
// networks are 8 Garg–Könemann solves over 8-way KSP.
func TestEveryLPSolveRecorded(t *testing.T) {
	for _, tc := range []struct {
		id, solver string
		calls, k   int
	}{
		{"fig6b", "maxmin", 15, 0},
		{"fig8b", "gk-fixed", 8, 8},
	} {
		var mbuf bytes.Buffer
		c := obs.NewCollector()
		c.StreamMetrics(&mbuf)
		e, _ := ByID(tc.id)
		e.Run(Params{Seed: 1, Obs: c})
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		solvers := records[obs.SolverRecord](t, &mbuf, obs.KindSolver)
		if len(solvers) != tc.calls {
			t.Errorf("%s: %d solver records, want %d", tc.id, len(solvers), tc.calls)
		}
		for _, r := range solvers {
			if r.Exp != tc.id || r.Solver != tc.solver || r.K != tc.k || r.WallSec <= 0 {
				t.Errorf("%s: solver record %+v, want solver %s, K %d and wall time", tc.id, r, tc.solver, tc.k)
			}
			if tc.solver != "maxmin" && (r.Phases <= 0 || r.Iterations <= 0 || r.Attempts <= 0) {
				t.Errorf("%s: empty GK stats: %+v", tc.id, r)
			}
		}
	}
}

// TestFig10Telemetry: fig10 observed at one fingerprint checkpoint per
// event, its four engines running at once, streams flow records with
// their plane choices, and every record names its own engine: each net's
// checkpoints count that engine's events one by one in sim time order,
// the nets that checkpoint are the nets that sample, and every flow
// record names one of them.
func TestFig10Telemetry(t *testing.T) {
	var mbuf bytes.Buffer
	perEvent := &eventChecker{MetricsWriter: obs.NewMetricsWriter(&mbuf), nets: map[int]*netEvents{}}
	c := obs.NewCollector()
	c.Fingerprint, c.FingerprintEpoch = true, 1
	c.Sink = perEvent
	e, _ := ByID("fig10")
	par.SetLimit(2)
	e.Run(Params{Seed: 1, Obs: c})
	par.SetLimit(0)
	if err := errors.Join(c.Close(), perEvent.Flush()); err != nil {
		t.Fatal(err)
	}
	if perEvent.bad != "" {
		t.Fatal(perEvent.bad)
	}
	if len(perEvent.nets) != 4 {
		t.Errorf("checkpoints of %d engines, want fig10's four", len(perEvent.nets))
	}
	for net, n := range perEvent.nets {
		for _, kind := range []string{"hop", "deliver", "tx", "timer"} {
			if n.kinds[kind] == 0 {
				t.Errorf("net %d: no %s event among its %d checkpoints", net, kind, n.events)
			}
		}
	}

	sampled := map[int]bool{}
	for _, r := range records[obs.EngineRecord](t, &mbuf, obs.KindEngine) {
		sampled[r.Net] = true
		if perEvent.nets[r.Net] == nil {
			t.Errorf("engine record of net %d, which made no checkpoint", r.Net)
		}
	}
	if len(sampled) != len(perEvent.nets) {
		t.Errorf("%d nets sampled, %d checkpointed", len(sampled), len(perEvent.nets))
	}
	flows := records[obs.FlowRecord](t, &mbuf, obs.KindFlow)
	if len(flows) == 0 {
		t.Fatal("no flow records")
	}
	for _, f := range flows {
		if f.FCT <= 0 || f.Bytes <= 0 || len(f.Planes) == 0 || perEvent.nets[f.Net] == nil {
			t.Errorf("flow record = %+v", f)
		}
	}
}

// eventChecker checks per-event checkpoints as they arrive, per net: each
// must follow the net's previous one by one event, never earlier in sim
// time. It hands every other record to a stream.
type eventChecker struct {
	*obs.MetricsWriter
	mu   sync.Mutex
	nets map[int]*netEvents
	bad  string // the first checkpoint out of line
}

type netEvents struct {
	events, tPs int64
	kinds       map[string]int
}

func (e *eventChecker) Fingerprint(r obs.FingerprintRecord) {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.nets[r.Net]
	if n == nil {
		n = &netEvents{kinds: map[string]int{}}
		e.nets[r.Net] = n
	}
	if (r.Events != n.events+1 || r.TPs < n.tPs) && e.bad == "" {
		e.bad = fmt.Sprintf("net %d: checkpoint %+v after %d events at %d ps", r.Net, r, n.events, n.tPs)
	}
	n.events, n.tPs = r.Events, r.TPs
	n.kinds[r.Kind]++
}

// TestFlowNetIsEngineNet: a flow record names the engine it ran on, by the
// NetID its engine's other records carry, so that (net, id) names one
// flow: fig10's four engines all number their flows from 1. An unrelated
// network attaches first, so a flow record left at net 0 names the wrong
// engine.
func TestFlowNetIsEngineNet(t *testing.T) {
	var mbuf bytes.Buffer
	c := obs.NewCollector()
	c.StreamMetrics(&mbuf)
	unrelated := sim.NewEngine()
	c.AttachNetwork(unrelated, sim.NewNetwork(unrelated, topo.FatTreeSet(4, 1, 40).SerialLow.G, sim.Config{}))
	e, _ := ByID("fig10")
	par.SetLimit(2)
	e.Run(Params{Seed: 1, Obs: c})
	par.SetLimit(0)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	engines := map[int]bool{}
	for _, r := range records[obs.EngineRecord](t, &mbuf, obs.KindEngine) {
		engines[r.Net] = r.Net != 0
	}
	flows := map[[2]int64]bool{}
	nets := map[int]bool{}
	for _, r := range records[obs.FlowRecord](t, &mbuf, obs.KindFlow) {
		if !engines[r.Net] {
			t.Fatalf("flow %d on net %d, which is not one of fig10's engines %v", r.ID, r.Net, engines)
		}
		if k := [2]int64{int64(r.Net), r.ID}; flows[k] {
			t.Fatalf("two records of flow %d on net %d", r.ID, r.Net)
		} else {
			flows[k] = true
		}
		nets[r.Net] = true
	}
	if len(nets) != 4 {
		t.Errorf("flows on %d engines, want fig10's four", len(nets))
	}
}

// busiest is a sink that keeps the link record of highest utilization
// and hands every other record to a discarded stream.
type busiest struct {
	*obs.MetricsWriter
	mu  sync.Mutex
	max obs.LinkRecord
}

func (b *busiest) Link(r obs.LinkRecord) {
	b.mu.Lock()
	if r.Util > b.max.Util {
		b.max = r
	}
	b.mu.Unlock()
}

// TestLinkUtilAtMostOne: a link is busy for at most the whole of a
// sampling interval, so no link record of fig11 or faults reads
// utilization above 1. A transmission that straddles a tick counts in
// each interval by the part of it that falls there.
func TestLinkUtilAtMostOne(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig11 and faults observed, about 4 s")
	}
	for _, id := range []string{"fig11", "faults"} {
		b := &busiest{MetricsWriter: obs.NewMetricsWriter(io.Discard)}
		c := obs.NewCollector()
		c.Sink = b
		e, _ := ByID(id)
		e.Run(Params{Seed: 1, Obs: c})
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if b.max.Util <= 0 || b.max.Util > 1 {
			t.Errorf("%s: busiest link record %+v, want util in (0, 1]", id, b.max)
		}
	}
}

// TestParamsWithoutObs checks experiments run identically with telemetry
// off — the nil path every benchmark takes.
func TestParamsWithoutObs(t *testing.T) {
	e, _ := ByID("fig6c")
	table := e.Run(Params{Seed: 1})
	if len(table.Rows) == 0 {
		t.Fatal("fig6c returned no rows without a collector")
	}
}

// records decodes the lines of one record kind in a metrics stream.
func records[R any](t *testing.T, stream *bytes.Buffer, kind string) []R {
	t.Helper()
	var out []R
	for _, line := range splitLines(stream.String()) {
		if !strings.HasPrefix(line, `{"type":"`+kind+`"`) {
			continue
		}
		var r R
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad %s line %q: %v", kind, line, err)
		}
		out = append(out, r)
	}
	return out
}

func splitLines(s string) []string {
	var out []string
	for _, l := range strings.Split(s, "\n") {
		if strings.TrimSpace(l) != "" {
			out = append(out, l)
		}
	}
	return out
}
