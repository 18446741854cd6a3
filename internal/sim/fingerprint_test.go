package sim

import (
	"maps"
	"slices"
	"testing"

	"pnet/internal/graph"
)

// fpRun sends n packets end to end on a warm hostPair network with the
// given fingerprinter attached and returns it.
func fpRun(n int, f *Fingerprinter) *Fingerprinter {
	eng, net, fwd, _ := hostPair(100, Config{})
	eng.Fingerprint = f
	s := &releaseSink{net: net}
	for i := 0; i < n; i++ {
		p := net.NewPacket()
		p.Size = 1500
		p.Route = fwd
		p.Deliver = s
		p.FlowID = int64(i%4 + 1)
		p.Seq = int64(i)
		net.Send(p)
		eng.Run()
	}
	return f
}

// twoPlanePair is two hosts joined through one switch per plane:
// 0 -sw(2+pl)- 1 on plane pl, with the host 0 to host 1 route of each.
func twoPlanePair() (*Engine, *Network, [2][]graph.LinkID) {
	g := graph.New(4)
	g.SetTransit(0, false)
	g.SetTransit(1, false)
	var routes [2][]graph.LinkID
	for pl := int32(0); pl < 2; pl++ {
		up, _ := g.AddDuplex(0, 2+graph.NodeID(pl), 100, pl)
		_, down := g.AddDuplex(1, 2+graph.NodeID(pl), 100, pl)
		routes[pl] = []graph.LinkID{up, down}
	}
	eng := NewEngine()
	return eng, NewNetwork(eng, g, Config{}), routes
}

// finalCheckpoint is where a run's chain ended.
func finalCheckpoint(f *Fingerprinter) FingerprintCheckpoint {
	return FingerprintCheckpoint{Events: f.events, Global: f.global}
}

// recordCheckpoints points f's checkpoints at a slice, as a collector
// points them at its sink.
func recordCheckpoints(f *Fingerprinter) *[]FingerprintCheckpoint {
	var cps []FingerprintCheckpoint
	f.OnCheckpoint = func(cp FingerprintCheckpoint) { cps = append(cps, cp) }
	return &cps
}

// allCheckpoints is what a run streamed plus its trailing partial
// checkpoint, if it has one.
func allCheckpoints(f *Fingerprinter, streamed []FingerprintCheckpoint) []FingerprintCheckpoint {
	if cp, ok := f.Partial(); ok {
		return append(streamed, cp)
	}
	return streamed
}

// TestFingerprintDeterministic: identical runs produce identical chains;
// a run with different content diverges.
func TestFingerprintDeterministic(t *testing.T) {
	a := finalCheckpoint(fpRun(50, NewFingerprinter(16)))
	b := finalCheckpoint(fpRun(50, NewFingerprinter(16)))
	if a.Global != b.Global {
		t.Fatalf("identical runs diverged: global %016x vs %016x", a.Global, b.Global)
	}
	if a.Events != b.Events || a.Events == 0 {
		t.Fatalf("event counts %d vs %d — comparison proved nothing", a.Events, b.Events)
	}
	if c := finalCheckpoint(fpRun(51, NewFingerprinter(16))); c.Global == a.Global {
		t.Errorf("runs with different event content share global chain %016x", c.Global)
	}
}

// TestFingerprintCheckpoints pins the cadence math: one checkpoint per
// full epoch, cumulative event counts, a trailing Partial checkpoint for
// the in-progress epoch, and idempotent snapshots of it.
func TestFingerprintCheckpoints(t *testing.T) {
	f := NewFingerprinter(16)
	streamed := recordCheckpoints(f)
	fpRun(50, f)
	cps := allCheckpoints(f, *streamed)
	if len(cps) == 0 {
		t.Fatal("no checkpoints recorded")
	}
	total := f.events
	wantFull := total / 16
	wantPartial := total%16 != 0
	n := int(wantFull)
	if wantPartial {
		n++
	}
	if len(cps) != n {
		t.Fatalf("got %d checkpoints, want %d (events=%d, epoch=16)", len(cps), n, total)
	}
	for i, cp := range cps {
		last := i == len(cps)-1
		if cp.Partial != (wantPartial && last) {
			t.Errorf("checkpoint %d: Partial=%v unexpectedly", i, cp.Partial)
		}
		if !cp.Partial {
			if cp.Events != int64(i+1)*16 {
				t.Errorf("checkpoint %d: Events=%d, want %d", i, cp.Events, (i+1)*16)
			}
			if cp.Epoch != int64(i) {
				t.Errorf("checkpoint %d: Epoch=%d, want %d", i, cp.Epoch, i)
			}
		}
	}
	final := cps[len(cps)-1]
	if final.Events != total || final.Global != f.global {
		t.Errorf("final checkpoint %+v does not match the live chain (events=%d global=%016x)", final, total, f.global)
	}
	if again, ok := f.Partial(); !ok || again.Global != final.Global || again.Events != final.Events {
		t.Errorf("Partial not idempotent: %+v then %+v", final, again)
	}
}

// TestFingerprintCadenceOne: at one event an epoch every folded event
// closes a checkpoint, in order, carrying that event's identity and the
// global chain after folding it, and no partial checkpoint is left.
func TestFingerprintCadenceOne(t *testing.T) {
	f := NewFingerprinter(1)
	cps := recordCheckpoints(f)
	type ident struct {
		kind  EventKind
		plane int32
		link  int64
	}
	var want []ident
	f.Fold(5, EvTimer, -1, -1, 0, 0, 0)
	want = append(want, ident{EvTimer, -1, -1})
	for i := 0; i < 20; i++ {
		f.Fold(Time(10+i), EvHop, int32(i%2), int64(i), int64(i%3+1), int64(i), 1500)
		want = append(want, ident{EvHop, int32(i % 2), int64(i)})
	}
	if len(*cps) != len(want) || int64(len(*cps)) != f.events {
		t.Fatalf("%d checkpoints for %d events", len(*cps), f.events)
	}
	for i, cp := range *cps {
		if cp.Epoch != int64(i) || cp.Events != int64(i+1) || (ident{cp.Kind, cp.Plane, cp.Link}) != want[i] || cp.Partial {
			t.Errorf("checkpoint %d = %+v, want epoch %d closed by %+v", i, cp, i, want[i])
		}
		if i > 0 && (cp.Flow != int64((i-1)%3+1) || cp.Seq != int64(i-1) || cp.Size != 1500) {
			t.Errorf("checkpoint %d carries flow %d seq %d size %d", i, cp.Flow, cp.Seq, cp.Size)
		}
	}
	if last := (*cps)[len(*cps)-1]; last.Global != f.global {
		t.Errorf("last checkpoint chain %016x != global chain %016x", last.Global, f.global)
	}
	if cp, ok := f.Partial(); ok {
		t.Errorf("partial checkpoint %+v at cadence 1", cp)
	}
}

// TestFingerprintOrderSensitive: folding the same two events in swapped
// order must change the chain — the property divergence bisection needs.
func TestFingerprintOrderSensitive(t *testing.T) {
	a := NewFingerprinter(0)
	b := NewFingerprinter(0)
	a.Fold(100, EvHop, 0, 3, 1, 10, 1500)
	a.Fold(100, EvHop, 0, 3, 2, 10, 1500)
	b.Fold(100, EvHop, 0, 3, 2, 10, 1500)
	b.Fold(100, EvHop, 0, 3, 1, 10, 1500)
	if ag := finalCheckpoint(a).Global; ag == finalCheckpoint(b).Global {
		t.Fatalf("swapping two events left global chain unchanged: %016x", ag)
	}
}

// TestPacketPathZeroAllocFingerprint extends the zero-alloc guard to the
// fingerprint-enabled path: neither folding nor checkpointing costs an
// allocation, even at a cadence of one checkpoint per event.
func TestPacketPathZeroAllocFingerprint(t *testing.T) {
	eng, net, fwd, _ := hostPair(100, Config{})
	eng.Fingerprint = NewFingerprinter(1)
	var checkpoints int
	eng.Fingerprint.OnCheckpoint = func(FingerprintCheckpoint) { checkpoints++ }
	s := &releaseSink{net: net}
	send := func() {
		p := net.NewPacket()
		p.Size = 1500
		p.Route = fwd
		p.Deliver = s
		p.FlowID = 7
		net.Send(p)
		eng.Run()
	}
	for i := 0; i < 64; i++ {
		send() // warm pools
	}
	if avg := testing.AllocsPerRun(100, send); avg != 0 {
		t.Errorf("allocs per packet with fingerprinting = %v, want 0", avg)
	}
	if checkpoints == 0 {
		t.Error("no checkpoint was handed over")
	}
}

// TestFingerprintPinnedChain holds the chain's definition still across
// commits: a scripted run on two planes (timers, hops, delivers and
// transmissions, flows, sequence numbers and sizes all varying) must end
// on the chain and the event count recorded when the test was written,
// at the parent of the commit that rewrote classify and Fold. The other
// fingerprint tests compare two runs of one binary and so pass whatever
// the classification says, as long as it says it twice.
func TestFingerprintPinnedChain(t *testing.T) {
	eng, net, routes := twoPlanePair()
	f := NewFingerprinter(0)
	eng.Fingerprint = f
	s := &releaseSink{net: net}
	for burst := 0; burst < 6; burst++ {
		eng.At(Time(burst)*3*Microsecond, func() {
			for i := 0; i < 5+burst; i++ {
				p := net.NewPacket()
				p.Size = int32(64 + 359*((i+burst)%5))
				p.Route = routes[(i+burst)%3%2]
				p.Deliver = s
				p.FlowID = int64(1 + i%3)
				p.Seq = int64(burst*100 + i)
				net.Send(p)
			}
		})
	}
	eng.Run()
	const (
		wantEvents = 186
		wantGlobal = 0x4c77329163e61fb1
	)
	cp := finalCheckpoint(f)
	if cp.Events != wantEvents || cp.Global != wantGlobal {
		t.Errorf("after %d events: global %#016x; want %d events: global %#016x",
			cp.Events, cp.Global, wantEvents, uint64(wantGlobal))
	}
}

// TestFingerprintEpochCountdown runs 100 events at a cadence of 7, once
// through Fold and once through an engine: checkpoints fall on events 7,
// 14, ..., 98, each carrying the chain and identity of the 7th event of
// its epoch as a cadence-1 run of the same events sees them, with one
// Partial after them.
func TestFingerprintEpochCountdown(t *testing.T) {
	producers := map[string]func(*Fingerprinter){
		"Fold": func(f *Fingerprinter) {
			for i := 0; i < 100; i++ {
				f.Fold(Time(i), EventKind(i%int(numEventKinds)), int32(i%3-1), int64(i), 1, int64(i), 1500)
			}
		},
		"engine": func(f *Fingerprinter) { fpRun(25, f) }, // two tx, a hop and a deliver each
	}
	for name, produce := range producers {
		each := NewFingerprinter(1)
		events := recordCheckpoints(each)
		produce(each)
		f := NewFingerprinter(7)
		streamed := recordCheckpoints(f)
		produce(f)
		if f.events != 100 || len(*events) != 100 {
			t.Fatalf("%s: %d events folded, %d seen one by one, want 100", name, f.events, len(*events))
		}
		cps := allCheckpoints(f, *streamed)
		if len(cps) != 15 {
			t.Fatalf("%s: %d checkpoints, want 14 full and one partial", name, len(cps))
		}
		for i, cp := range cps[:14] {
			ev := (*events)[7*(i+1)-1]
			if cp.Partial || cp.Events != int64(7*(i+1)) || cp.Epoch != int64(i) || cp.Global != ev.Global ||
				cp.Kind != ev.Kind || cp.Plane != ev.Plane || cp.Link != ev.Link || cp.Flow != ev.Flow || cp.Seq != ev.Seq || cp.Size != ev.Size {
				t.Errorf("%s: checkpoint %d = %+v, want epoch %d closed at event %d: %+v", name, i, cp, i, 7*(i+1), ev)
			}
		}
		if last := cps[14]; !last.Partial || last.Events != 100 || last.Epoch != 14 || last.Global != (*events)[99].Global || last.Kind != 0 || last.Link != 0 {
			t.Errorf("%s: trailing checkpoint = %+v, want a partial one at event 100 with no event identity", name, last)
		}
	}
}

func TestEventKindNames(t *testing.T) {
	for i := EventKind(0); i < numEventKinds; i++ {
		got, ok := ParseEventKind(i.String())
		if !ok || got != i {
			t.Errorf("ParseEventKind(%q) = %v, %v; want %v, true", i.String(), got, ok, i)
		}
	}
	if _, ok := ParseEventKind("bogus"); ok {
		t.Error("ParseEventKind accepted a bogus name")
	}
}

// kindPlaneCounts counts a cadence-1 run's checkpoints by the (kind,
// plane) of the event each one names: classify's verdict on every event.
func kindPlaneCounts(cps []FingerprintCheckpoint) map[EventKind]map[int32]int64 {
	out := map[EventKind]map[int32]int64{}
	for _, cp := range cps {
		if out[cp.Kind] == nil {
			out[cp.Kind] = map[int32]int64{}
		}
		out[cp.Kind][cp.Plane]++
	}
	return out
}

// TestClassifyCounts drives packets and one timer under a fingerprinter
// checkpointing every event and checks the kind and plane classify gives
// each against the known path shape.
func TestClassifyCounts(t *testing.T) {
	eng, net, fwd, _ := hostPair(100, Config{})
	eng.Fingerprint = NewFingerprinter(1)
	cps := recordCheckpoints(eng.Fingerprint)
	s := &releaseSink{net: net}
	const n = 5
	for i := 0; i < n; i++ {
		p := net.NewPacket()
		p.Size = 1500
		p.Route = fwd
		p.Deliver = s
		net.Send(p)
	}
	eng.After(Microsecond, func() {}) // one timer event
	eng.Run()

	if int64(len(*cps)) != int64(eng.EventsFired()) {
		t.Fatalf("%d checkpoints for %d events: the cadence-1 stream must name every event", len(*cps), eng.EventsFired())
	}
	// Each packet: one hop arrival at the switch, one delivery at the
	// host, and two queue tx completions, all on plane 0; the timer has
	// no plane.
	got := kindPlaneCounts(*cps)
	want := map[EventKind]map[int32]int64{
		EvHop:     {0: n},
		EvDeliver: {0: n},
		EvTx:      {0: 2 * n},
		EvTimer:   {-1: 1},
	}
	if !maps.EqualFunc(got, want, maps.Equal) {
		t.Errorf("(kind, plane) counts = %v, want %v", got, want)
	}
}

// TestClassifyPlanes checks that hop, tx and deliver events name their
// link's plane: one packet crosses each plane of a two-plane pair.
func TestClassifyPlanes(t *testing.T) {
	eng, net, routes := twoPlanePair()
	eng.Fingerprint = NewFingerprinter(1)
	cps := recordCheckpoints(eng.Fingerprint)
	for _, r := range routes {
		p := net.NewPacket()
		p.Size = 1500
		p.Route = r
		p.Deliver = &releaseSink{net: net}
		net.Send(p)
	}
	eng.Run()

	got := kindPlaneCounts(*cps)
	want := map[EventKind]map[int32]int64{
		EvHop:     {0: 1, 1: 1},
		EvDeliver: {0: 1, 1: 1},
		EvTx:      {0: 2, 1: 2},
	}
	if !maps.EqualFunc(got, want, maps.Equal) {
		t.Errorf("(kind, plane) counts = %v, want %v", got, want)
	}
}

// TestFingerprinterSameResults checks that fingerprinting does not
// perturb the simulation: identical workloads with the fingerprinter on
// and off deliver at identical times and fire identical event counts,
// because fireInstrumented mirrors fire.
func TestFingerprinterSameResults(t *testing.T) {
	run := func(on bool) ([]Time, uint64) {
		eng, net, fwd, _ := hostPair(100, Config{})
		if on {
			eng.Fingerprint = NewFingerprinter(1)
		}
		s := &sink{eng: eng}
		for i := 0; i < 8; i++ {
			p := net.NewPacket()
			p.Size = 1500
			p.Route = fwd
			p.Deliver = s
			net.Send(p)
		}
		eng.After(3*Microsecond, func() {})
		eng.Run()
		return s.times, eng.EventsFired()
	}
	offT, offN := run(false)
	onT, onN := run(true)
	if offN != onN {
		t.Errorf("events fired: %d off, %d on", offN, onN)
	}
	if !slices.Equal(offT, onT) {
		t.Errorf("delivery times: %v off, %v on", offT, onT)
	}
}
