package sim

import (
	"slices"
	"testing"

	"pnet/internal/graph"
)

func TestSpanComponentNames(t *testing.T) {
	for i := SpanComponent(0); i < numSpanComponents; i++ {
		name := i.String()
		if name == "unknown" {
			t.Fatalf("component %d has no name", i)
		}
		got, ok := ParseSpanComponent(name)
		if !ok || got != i {
			t.Errorf("ParseSpanComponent(%q) = %v, %v; want %v, true", name, got, ok, i)
		}
	}
	if _, ok := ParseSpanComponent("bogus"); ok {
		t.Error("ParseSpanComponent accepted a bogus name")
	}
}

func TestEventKindNames(t *testing.T) {
	for i := EventKind(0); i < numEventKinds; i++ {
		got, ok := ParseEventKind(i.String())
		if !ok || got != i {
			t.Errorf("ParseEventKind(%q) = %v, %v; want %v, true", i.String(), got, ok, i)
		}
	}
	if !EvDeliver.HostBoundary() || !EvTimer.HostBoundary() {
		t.Error("deliver/timer must be host-boundary kinds")
	}
	if EvHop.HostBoundary() || EvTx.HostBoundary() {
		t.Error("hop/tx must be in-plane kinds")
	}
}

// TestSpanJourneyContiguous sends one packet over a warm two-hop path
// and checks the span's segments sum exactly to delivery − send: the
// queue records wait + serialization + propagation with no gaps.
func TestSpanJourneyContiguous(t *testing.T) {
	eng, net, fwd, _ := hostPair(100, Config{PropDelay: 500 * Nanosecond})
	net.EnableSpans()
	var got *SpanLog
	s := &sinkFn{fn: func(p *Packet) {
		got = p.TakeSpan()
		net.Release(p)
	}}
	p := net.NewPacket()
	p.Size = 1500
	p.Route = fwd
	p.Deliver = s
	sent := eng.Now()
	p.AttachSpan(net.NewSpan(CauseFresh, sent))
	net.Send(p)
	eng.Run()
	if got == nil {
		t.Fatal("no span delivered")
	}
	if got.SentAt != sent {
		t.Errorf("SentAt = %v, want %v", got.SentAt, sent)
	}
	// Two hops, each serialize (120ns) + propagate (500ns), no queueing.
	wantSer, wantProp := 2*120*Nanosecond, 2*500*Nanosecond
	var ser, prop, queue, total Time
	for _, sg := range got.segs {
		total += sg.Dur
		switch sg.Comp {
		case SpanSerialize:
			ser += sg.Dur
		case SpanPropagate:
			prop += sg.Dur
		case SpanQueue:
			queue += sg.Dur
		}
	}
	if fct := eng.Now() - sent; total != fct {
		t.Errorf("journey total %v != delivery time %v", total, fct)
	}
	if ser != wantSer || prop != wantProp || queue != 0 {
		t.Errorf("ser=%v prop=%v queue=%v, want %v/%v/0", ser, prop, queue, wantSer, wantProp)
	}
	net.FreeSpan(got)
}

type sinkFn struct{ fn func(*Packet) }

func (s *sinkFn) HandlePacket(p *Packet) { s.fn(p) }

// TestSpanPoolReuse checks NewSpan/FreeSpan recycle logs and reset state.
func TestSpanPoolReuse(t *testing.T) {
	_, net, _, _ := hostPair(100, Config{})
	s := net.NewSpan(CauseRTO, 7)
	s.hop(3, 1, 2, 3)
	net.FreeSpan(s)
	s2 := net.NewSpan(CauseFresh, 9)
	if s2 != s {
		t.Error("span not recycled from pool")
	}
	if s2.Cause != CauseFresh || s2.SentAt != 9 || len(s2.segs) != 0 || s2.wait != 0 {
		t.Errorf("recycled span not reset: %+v", s2)
	}
	net.FreeSpan(nil) // must not panic
}

// TestSpanReleaseFreesUnclaimed checks Release returns an attached span
// to the pool (the drop/blackhole path cannot leak logs).
func TestSpanReleaseFreesUnclaimed(t *testing.T) {
	_, net, _, _ := hostPair(100, Config{})
	s := net.NewSpan(CauseFresh, 0)
	p := net.NewPacket()
	p.AttachSpan(s)
	net.Release(p)
	if got := net.NewSpan(CauseFresh, 1); got != s {
		t.Error("Release did not return the span to the pool")
	}
}

func TestAttributeExactPartition(t *testing.T) {
	var a SpanAttribution

	// Journey sent before the interval start: only the suffix counts,
	// the boundary segment split exactly.
	s := &SpanLog{SentAt: 0, Cause: CauseFresh}
	s.hop(0, 10, 20, 30) // queue 10, ser 20, prop 30 → delivery at 60
	a.Attribute(s, 35, 60)
	if got := a.Total(); got != 25 {
		t.Fatalf("suffix attribution total %d, want 25", got)
	}
	// Backward walk: prop 30 then 0 left? 25 < 30 → prop truncated to 25.
	cells := a.Totals()
	if len(cells) != 1 || cells[0].Comp != SpanPropagate || cells[0].Dur != 25 {
		t.Fatalf("suffix cells = %+v, want one propagate/25", cells)
	}

	// Journey sent inside the interval: the gap charges the cause stall.
	var b SpanAttribution
	r := &SpanLog{SentAt: 40, Cause: CauseRTO}
	r.hop(1, 0, 5, 15) // delivery at 60
	b.Attribute(r, 0, 60)
	if got := b.Total(); got != 60 {
		t.Fatalf("gap attribution total %d, want 60", got)
	}
	var stall Time
	for _, c := range b.Totals() {
		if c.Comp == SpanRTOStall {
			stall = c.Dur
		}
	}
	if stall != 40 {
		t.Errorf("rto_stall = %d, want 40", stall)
	}

	// Nil span (no causing packet known): everything is host wait.
	var c SpanAttribution
	c.Attribute(nil, 10, 30)
	cells = c.Totals()
	if len(cells) != 1 || cells[0].Comp != SpanHostWait || cells[0].Dur != 20 {
		t.Errorf("nil-span cells = %+v, want host_wait/20", cells)
	}

	// Empty interval: no-op.
	c.Attribute(nil, 30, 30)
	if c.Total() != 20 {
		t.Error("empty interval changed the attribution")
	}
}

func TestAttributionTotalsSorted(t *testing.T) {
	var a SpanAttribution
	a.add(SpanPropagate, 2, 5)
	a.add(SpanQueue, 1, 5)
	a.add(SpanQueue, 0, 5)
	a.add(SpanPropagate, 2, 7) // merges
	cells := a.Totals()
	want := []SpanTotal{{SpanQueue, 0, 5}, {SpanQueue, 1, 5}, {SpanPropagate, 2, 12}}
	if len(cells) != len(want) {
		t.Fatalf("cells = %+v", cells)
	}
	for i := range want {
		if cells[i] != want[i] {
			t.Errorf("cell %d = %+v, want %+v", i, cells[i], want[i])
		}
	}
}

// TestSpansDisabledZeroAlloc proves the tentpole's hot-path contract:
// with spans off and no flight recorder, the per-packet span hooks are
// nil checks and the packet path still allocates nothing.
func TestSpansDisabledZeroAlloc(t *testing.T) {
	eng, net, fwd, _ := hostPair(100, Config{})
	if net.SpansOn() {
		t.Fatal("spans must be off by default")
	}
	s := &releaseSink{net: net}
	send := func() {
		p := net.NewPacket()
		p.Size = 1500
		p.Route = fwd
		p.Deliver = s
		net.Send(p)
		eng.Run()
	}
	for i := 0; i < 64; i++ {
		send()
	}
	if avg := testing.AllocsPerRun(100, send); avg != 0 {
		t.Errorf("allocs per packet with spans disabled = %v, want 0", avg)
	}
}

// TestFlightRecorderCounts drives packets with the recorder attached and
// checks the (kind, plane) event counts against the known path shape.
func TestFlightRecorderCounts(t *testing.T) {
	eng, net, fwd, _ := hostPair(100, Config{})
	rec := NewFlightRecorder()
	eng.Recorder = rec
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

	byKind := map[EventKind]int64{}
	for _, b := range rec.Snapshot() {
		byKind[b.Kind] += b.Events
		if b.Kind == EvTimer && b.Plane != -1 {
			t.Errorf("timer bin on plane %d, want -1", b.Plane)
		}
	}
	// Each packet: one hop arrival at the switch, one delivery at the
	// host, and two queue tx completions.
	if byKind[EvHop] != n || byKind[EvDeliver] != n || byKind[EvTx] != 2*n || byKind[EvTimer] != 1 {
		t.Errorf("kind counts = %+v, want hop=%d deliver=%d tx=%d timer=1", byKind, n, n, 2*n)
	}
}

// TestFlightRecorderSameResults checks that profiling does not perturb
// the simulation: identical workloads with and without the recorder
// deliver at identical times, fire identical event counts and, with the
// fingerprinter riding the same instrumented dispatch, end on identical
// chains.
func TestFlightRecorderSameResults(t *testing.T) {
	run := func(profile bool) ([]Time, uint64, *Fingerprinter) {
		eng, net, fwd, _ := hostPair(100, Config{PropDelay: 200 * Nanosecond})
		eng.Fingerprint = NewFingerprinter(0)
		if profile {
			eng.Recorder = NewFlightRecorder()
		}
		s := &sink{eng: eng}
		for i := 0; i < 8; i++ {
			p := net.NewPacket()
			p.Size = 1500
			p.Route = fwd
			p.Deliver = s
			net.Send(p)
		}
		eng.Run()
		return s.times, eng.EventsFired(), eng.Fingerprint
	}
	plainT, plainN, plainFP := run(false)
	profT, profN, profFP := run(true)
	if plainN != profN {
		t.Errorf("events fired: plain %d, profiled %d", plainN, profN)
	}
	if len(plainT) != len(profT) {
		t.Fatalf("deliveries: plain %d, profiled %d", len(plainT), len(profT))
	}
	for i := range plainT {
		if plainT[i] != profT[i] {
			t.Errorf("delivery %d at %v profiled vs %v plain", i, profT[i], plainT[i])
		}
	}
	a, b := finalCheckpoint(plainFP), finalCheckpoint(profFP)
	if a.Global != b.Global || a.Host != b.Host || !slices.Equal(a.Planes, b.Planes) || a.Events != b.Events {
		t.Errorf("fingerprint chains: plain %x/%x/%x after %d events, profiled %x/%x/%x after %d",
			a.Global, a.Host, a.Planes, a.Events, b.Global, b.Host, b.Planes, b.Events)
	}
}

// TestFlightRecorderPlanes checks plane attribution of hop/tx events on
// a two-plane topology.
func TestFlightRecorderPlanes(t *testing.T) {
	g := graph.New(3)
	g.SetTransit(0, false)
	g.SetTransit(1, false)
	up, _ := g.AddDuplex(0, 2, 100, 1)
	_, down := g.AddDuplex(1, 2, 100, 1)
	eng := NewEngine()
	net := NewNetwork(eng, g, Config{})
	rec := NewFlightRecorder()
	eng.Recorder = rec
	s := &releaseSink{net: net}
	p := net.NewPacket()
	p.Size = 1500
	p.Route = []graph.LinkID{up, down}
	p.Deliver = s
	net.Send(p)
	eng.Run()
	for _, b := range rec.Snapshot() {
		if (b.Kind == EvHop || b.Kind == EvTx || b.Kind == EvDeliver) && b.Plane != 1 {
			t.Errorf("%v bin on plane %d, want 1", b.Kind, b.Plane)
		}
	}
}
