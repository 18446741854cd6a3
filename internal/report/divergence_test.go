package report

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"testing"

	"pnet/internal/obs"
	"pnet/internal/sim"
)

// fpEvent is one synthetic event identity for replay through a
// Fingerprinter — the test's stand-in for an engine dispatch.
type fpEvent struct {
	t     sim.Time
	kind  sim.EventKind
	plane int32
	link  int64
	flow  int64
	seq   int64
}

// replay folds events through a real Fingerprinter and returns the
// checkpoint records of one net, exactly as the collector emits them.
func replay(events []fpEvent, epoch int64, net int) []obs.FingerprintRecord {
	f := sim.NewFingerprinter(epoch)
	var cps []obs.FingerprintRecord
	f.OnCheckpoint = func(cp sim.FingerprintCheckpoint) { cps = append(cps, obs.CheckpointRecord(net, epoch, cp)) }
	for _, e := range events {
		f.Fold(e.t, e.kind, e.plane, e.link, e.flow, e.seq, 1500)
	}
	if cp, ok := f.Partial(); ok {
		cps = append(cps, obs.CheckpointRecord(net, epoch, cp))
	}
	return cps
}

// writeStream writes what emit hands its sink through the collector's
// MetricsWriter into a metrics JSONL file, and returns the file's path.
func writeStream(t *testing.T, emit func(obs.Sink)) string {
	t.Helper()
	var buf bytes.Buffer
	w := obs.NewMetricsWriter(&buf)
	emit(w)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	f, err := os.CreateTemp(t.TempDir(), "*.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(buf.Bytes()); err != nil {
		t.Fatal(err)
	}
	return f.Name()
}

// replayStream is the metrics file of the given engines' checkpoints.
func replayStream(t *testing.T, engines ...[]obs.FingerprintRecord) string {
	return writeStream(t, func(s obs.Sink) {
		for _, cps := range engines {
			for _, r := range cps {
				s.Fingerprint(r)
			}
		}
	})
}

// syntheticEvents builds n packet events across two planes with distinct
// flow IDs, so any swap is fingerprint-visible.
func syntheticEvents(n int) []fpEvent {
	out := make([]fpEvent, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, fpEvent{
			t: sim.Time(1000 * (i + 1)), kind: sim.EvHop,
			plane: int32(i % 2), link: int64(i % 5),
			flow: int64(i%7 + 1), seq: int64(i),
		})
	}
	return out
}

func TestDivergenceMatch(t *testing.T) {
	ev := syntheticEvents(200)
	base := replayStream(t, replay(ev, 32, 0))
	cur := replayStream(t, replay(ev, 32, 3)) // different NetID: pairing must not care
	d, err := FindDivergence(base, cur, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Match {
		t.Fatalf("identical replays reported divergent: %s", d)
	}
	if !strings.Contains(d.String(), "MATCH") {
		t.Errorf("rendering = %q", d.String())
	}
}

// TestDivergencePerturbed is the acceptance check: flip the order of two
// adjacent events and, on checkpoints made every event, the divergence
// must be localized to exactly that event, with both sides' identities,
// the right plane attribution and a ±2 context window. At a larger
// cadence the same swap is localized to its epoch, which names its last
// event and points at cadence 1.
func TestDivergencePerturbed(t *testing.T) {
	ev := syntheticEvents(200)
	// Swap events 100 and 101. Same timestamps stay monotone because the
	// swap only reorders identity.
	perturbed := append([]fpEvent(nil), ev...)
	perturbed[100], perturbed[101] = perturbed[101], perturbed[100]
	perturbed[100].t, perturbed[101].t = ev[100].t, ev[101].t // keep times, swap identity

	d, err := FindDivergence(replayStream(t, replay(ev, 1, 0)), replayStream(t, replay(perturbed, 1, 0)), 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Match {
		t.Fatal("perturbed replay reported as matching")
	}
	if d.Epoch != 100 || d.Events != 101 {
		t.Fatalf("first divergent event = epoch %d (%d events), want 100 (101)", d.Epoch, d.Events)
	}
	if d.Base.Flow != ev[100].flow || d.Cur.Flow != ev[101].flow {
		t.Errorf("event flows = base %d cur %d, want %d and %d", d.Base.Flow, d.Cur.Flow, ev[100].flow, ev[101].flow)
	}
	if d.Base.Seq != 100 || d.Cur.Seq != 101 || d.Base.Kind != "hop" {
		t.Errorf("events = base %+v cur %+v, want seq 100 and 101, hops", d.Base, d.Cur)
	}
	// The swapped events are on planes 0 and 1; each closing event names
	// its own.
	if d.Base.Plane != ev[100].plane || d.Cur.Plane != ev[101].plane {
		t.Errorf("event planes = base %d cur %d, want %d and %d", d.Base.Plane, d.Cur.Plane, ev[100].plane, ev[101].plane)
	}
	if len(d.ContextBase) != 5 || len(d.ContextCur) != 5 || d.ContextBase[2].Epoch != 100 { // ±2 around the event
		t.Errorf("context windows = %d and %d records, want 5 centred on epoch 100", len(d.ContextBase), len(d.ContextCur))
	}
	out := d.String()
	for _, want := range []string{"DIVERGED", "epoch 100", "first divergent event", "->", "flow=3", "flow=4"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "-fingerprint-epoch 1") {
		t.Errorf("cadence-1 rendering asks for a cadence-1 rerun:\n%s", out)
	}

	const epoch = 32
	d, err = FindDivergence(replayStream(t, replay(ev, epoch, 0)), replayStream(t, replay(perturbed, epoch, 0)), 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Match || d.Epoch != 100/epoch {
		t.Fatalf("divergent epoch = %d (match %v), want %d", d.Epoch, d.Match, 100/epoch)
	}
	if last := 4*epoch - 1; d.Base.Seq != int64(last) || d.Cur.Seq != int64(last) {
		t.Errorf("closing events = seq %d and %d, want the epoch's last, %d", d.Base.Seq, d.Cur.Seq, last)
	}
	if out := d.String(); !strings.Contains(out, "-fingerprint-epoch 1") {
		t.Errorf("cadence-%d rendering lacks the cadence-1 pointer:\n%s", epoch, out)
	}
}

func TestDivergenceStructuralMismatches(t *testing.T) {
	ev := syntheticEvents(100)
	one := replayStream(t, replay(ev, 32, 0))
	// Engine-count mismatch: cur has two engines.
	two := replayStream(t, replay(ev, 32, 0), replay(ev[:50], 32, 1))
	d, err := FindDivergence(one, two, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Match || !strings.Contains(d.Note, "engine count differs") {
		t.Errorf("verdict = %+v", d)
	}
	// Cadence mismatch.
	other := replayStream(t, replay(ev, 16, 0))
	d, err = FindDivergence(one, other, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Match || !strings.Contains(d.Note, "cadence differs") {
		t.Errorf("verdict = %+v", d)
	}
	// No fingerprints at all.
	noFP := writeStream(t, func(s obs.Sink) { s.Solver(obs.SolverRecord{Type: obs.KindSolver}) })
	if _, err := FindDivergence(noFP, one, 2); err == nil {
		t.Error("base stream without fingerprints: want error")
	}
	// A checkpoint that does not extend its engine's chain is an error,
	// not a silently shifted bisection.
	gap := replay(ev, 32, 0)
	if _, err := FindDivergence(replayStream(t, append(gap[:1:1], gap[2:]...)), one, 2); err == nil ||
		!strings.Contains(err.Error(), "epoch 2 after 1 checkpoints") {
		t.Errorf("a chain missing epoch 1: err = %v, want one naming the gap", err)
	}
}

// TestDivergenceContextByNet: the context of a divergence comes from the
// divergent pair's own engine on each side, which two streams number
// differently. Both engines of each run have flows 3 and 4; the diverging
// engine is net 1 in base and net 0 in cur, so every checkpoint and flow
// printed must carry that side's number. The
// swap closes the divergent checkpoint with flow 3 in base, 4 in cur. The
// flow records come before the checkpoints, which takes a read of their
// own, or after them, where the context's read picks them up.
func TestDivergenceContextByNet(t *testing.T) {
	for _, flowsLast := range []bool{false, true} {
		t.Run(fmt.Sprintf("flows last %v", flowsLast), func(t *testing.T) { checkContextByNet(t, flowsLast) })
	}
}

func checkContextByNet(t *testing.T, flowsLast bool) {
	a := syntheticEvents(200)
	b := syntheticEvents(200)
	for i := range b {
		b[i].t += 7 // another engine: its chain differs from the first event
	}
	b2 := append([]fpEvent(nil), b...)
	b2[100], b2[101] = b[101], b[100]
	b2[100].t, b2[101].t = b[100].t, b[101].t
	engine := func(events []fpEvent, net int, bytes int64) func(obs.Sink) {
		return func(s obs.Sink) {
			flows := func() {
				for _, id := range []int64{3, 4} {
					s.Flow(obs.FlowRecord{Type: obs.KindFlow, Net: net, ID: id, Transport: "tcp", Bytes: bytes + id, FCT: 1e-6})
				}
			}
			if !flowsLast {
				flows()
			}
			for _, r := range replay(events, 1, net) {
				s.Fingerprint(r)
			}
			if flowsLast {
				flows()
			}
		}
	}
	both := func(x, y func(obs.Sink)) func(obs.Sink) { return func(s obs.Sink) { x(s); y(s) } }
	base := writeStream(t, both(engine(a, 0, 1000), engine(b, 1, 2000)))
	cur := writeStream(t, both(engine(b2, 0, 2000), engine(a, 1, 1000)))
	d, err := FindDivergence(base, cur, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Match || d.BaseNet != 1 || d.CurNet != 0 || d.Epoch != 100 {
		t.Fatalf("verdict = match %v, base net %d, cur net %d, epoch %d; want the pair (1, 0) diverging at 100", d.Match, d.BaseNet, d.CurNet, d.Epoch)
	}
	for side, ctx := range map[int][]obs.FingerprintRecord{1: d.ContextBase, 0: d.ContextCur} {
		if len(ctx) != 5 {
			t.Errorf("net %d: %d context checkpoints, want 5", side, len(ctx))
		}
		for _, r := range ctx {
			if r.Net != side {
				t.Errorf("context of net %d holds a checkpoint of net %d: %+v", side, r.Net, r)
			}
		}
	}
	if d.BaseFlow.Net != 1 || d.BaseFlow.Bytes != 2003 || d.CurFlow.Net != 0 || d.CurFlow.Bytes != 2004 {
		t.Errorf("flows = base %+v, cur %+v; want each side's own engine's flows 3 and 4", d.BaseFlow, d.CurFlow)
	}
	out := d.String()
	for _, want := range []string{"flow 3 (base): tcp 2003 bytes", "flow 4 (cur): tcp 2004 bytes"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
}

// TestDivergencePrefixRun: a run that simply stopped early (its
// checkpoints are a strict prefix) diverges at the first checkpoint only
// one side has.
func TestDivergencePrefixRun(t *testing.T) {
	ev := syntheticEvents(200)
	base := replayStream(t, replay(ev, 32, 0))
	cur := replayStream(t, replay(ev[:100], 32, 0))
	d, err := FindDivergence(base, cur, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Match {
		t.Fatal("prefix run reported as matching")
	}
	// 100 events at epoch 32: cur's last checkpoint is the partial one at
	// epoch 3; base matches it only if 100 lands on a boundary (it does
	// not), so the divergence is at cur's partial checkpoint epoch 3.
	if d.Epoch != 3 {
		t.Errorf("divergent epoch = %d, want 3", d.Epoch)
	}
}

// TestFingerprintSummaryRoundTrip drives a real two-plane simulation
// through a collector with fingerprinting on, and checks that (a) the
// JSONL round-trip agrees with the live Aggregator, (b) two identical
// runs produce identical summaries that Diff passes, and (c) a hash
// flip fails the gate.
func TestFingerprintSummaryRoundTrip(t *testing.T) {
	run := func() (RunSummary, RunSummary) {
		var buf bytes.Buffer
		c := obs.NewCollector()
		c.Fingerprint = true
		c.FingerprintEpoch = 16
		c.StreamMetrics(&buf)
		aggr := NewAggregator()
		c.Sink = aggr
		eng, net, paths := twoPlaneNet()
		c.AttachNetwork(eng, net)
		if eng.Fingerprint == nil {
			t.Fatal("collector did not attach a fingerprinter")
		}
		sink := releaseSink{net}
		for i := 0; i < 50; i++ {
			p := net.NewPacket()
			p.Size = 1500
			p.Route = paths[i%2].Links
			p.Deliver = sink
			p.FlowID = int64(i%3 + 1)
			net.Send(p)
		}
		eng.Run()
		m := Meta{Exp: "fp"}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), `"type":"fp"`) {
			t.Fatal("no fingerprint records in the stream")
		}
		fromFile := NewAggregator()
		if err := ReadStream(&buf, fromFile); err != nil {
			t.Fatal(err)
		}
		return aggr.Summarize(m), fromFile.Summarize(m)
	}
	mem1, jsonl1 := run()
	mem2, _ := run()
	for _, s := range []RunSummary{mem1, jsonl1, mem2} {
		if s.Fingerprint == nil || s.Fingerprint.Events == 0 {
			t.Fatalf("fingerprint summary missing/empty: %+v", s.Fingerprint)
		}
	}
	if *mem1.Fingerprint != *jsonl1.Fingerprint {
		t.Errorf("stream path disagrees with the live Aggregator:\nmem:   %+v\njsonl: %+v", mem1.Fingerprint, jsonl1.Fingerprint)
	}
	if mem1.Fingerprint.Global != mem2.Fingerprint.Global {
		t.Errorf("identical runs produced different global chains: %s vs %s",
			mem1.Fingerprint.Global, mem2.Fingerprint.Global)
	}
	if d := Diff(mem1, mem2, 0); !d.Pass {
		t.Errorf("identical fingerprinted runs fail the diff:\n%s", d)
	}
	bad := mem2
	fp := *mem2.Fingerprint
	fp.Global = obs.FormatHash(0xdeadbeef)
	bad.Fingerprint = &fp
	if d := Diff(mem1, bad, DefaultRelThreshold); d.Pass {
		t.Errorf("fingerprint mismatch passed the diff:\n%s", d)
	}
	if !strings.Contains(mem1.String(), "fingerprint: global=") {
		t.Errorf("summary rendering lacks fingerprint line:\n%s", mem1.String())
	}
}
