package report

import (
	"bytes"
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

// replayStream folds events through a real Fingerprinter and packages
// the result exactly as the collector writes it: the checkpoint records
// of one net.
func replayStream(events []fpEvent, epoch int64, net int) *Stream {
	f := sim.NewFingerprinter(epoch)
	st := &Stream{}
	f.OnCheckpoint = func(cp sim.FingerprintCheckpoint) { st.Fingerprint(obs.CheckpointRecord(net, epoch, cp)) }
	for _, e := range events {
		f.Fold(e.t, e.kind, e.plane, e.link, e.flow, e.seq, 1500)
	}
	if cp, ok := f.Partial(); ok {
		st.Fingerprint(obs.CheckpointRecord(net, epoch, cp))
	}
	return st
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
	base := replayStream(ev, 32, 0)
	cur := replayStream(ev, 32, 3) // different NetID: pairing must not care
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

	d, err := FindDivergence(replayStream(ev, 1, 0), replayStream(perturbed, 1, 0), 2)
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
	// Both swapped events are on distinct planes (planes 0 and 1), so
	// both plane chains diverge.
	if len(d.Planes) != 2 || d.Planes[0] != 0 || d.Planes[1] != 1 {
		t.Errorf("diverging planes = %v, want [0 1]", d.Planes)
	}
	if d.HostDiffers {
		t.Error("host chain flagged, but no timer events were perturbed")
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
	d, err = FindDivergence(replayStream(ev, epoch, 0), replayStream(perturbed, epoch, 0), 2)
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
	one := replayStream(ev, 32, 0)
	// Engine-count mismatch: cur has two engines.
	two := replayStream(ev, 32, 0)
	extra := replayStream(ev[:50], 32, 1)
	two.Fingerprints = append(two.Fingerprints, extra.Fingerprints...)
	d, err := FindDivergence(one, two, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Match || !strings.Contains(d.Note, "engine count differs") {
		t.Errorf("verdict = %+v", d)
	}
	// Cadence mismatch.
	other := replayStream(ev, 16, 0)
	d, err = FindDivergence(one, other, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Match || !strings.Contains(d.Note, "cadence differs") {
		t.Errorf("verdict = %+v", d)
	}
	// No fingerprints at all.
	if _, err := FindDivergence(&Stream{}, one, 2); err == nil {
		t.Error("empty base stream: want error")
	}
}

// TestDivergencePrefixRun: a run that simply stopped early (its
// checkpoints are a strict prefix) diverges at the first checkpoint only
// one side has.
func TestDivergencePrefixRun(t *testing.T) {
	ev := syntheticEvents(200)
	base := replayStream(ev, 32, 0)
	cur := replayStream(ev[:100], 32, 0)
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
		c.Interval = sim.Microsecond
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
	if *sumFP(t, mem1) != *sumFP(t, jsonl1) {
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
	if d := Diff(mem1, bad, 0); d.Pass {
		t.Errorf("fingerprint mismatch passed the diff:\n%s", d)
	}
	if !strings.Contains(mem1.String(), "fingerprint: global=") {
		t.Errorf("summary rendering lacks fingerprint line:\n%s", mem1.String())
	}
}

// sumFP flattens the plane slice so the struct is comparable with ==.
func sumFP(t *testing.T, s RunSummary) *struct {
	Engines int
	Events  int64
	Global  string
	Host    string
	Planes  string
} {
	t.Helper()
	var planes strings.Builder
	for _, p := range s.Fingerprint.Planes {
		planes.WriteString(p.Hash)
	}
	return &struct {
		Engines int
		Events  int64
		Global  string
		Host    string
		Planes  string
	}{s.Fingerprint.Engines, s.Fingerprint.Events, s.Fingerprint.Global, s.Fingerprint.Host, planes.String()}
}
