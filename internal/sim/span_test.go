package sim

import "testing"

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

// TestSpanJourneyContiguous sends one packet over a warm two-hop path
// and checks the span's segments sum exactly to delivery − send: the
// queue records wait + serialization + propagation with no gaps.
func TestSpanJourneyContiguous(t *testing.T) {
	eng, net, fwd, _ := hostPair(100, Config{})
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
	// Two hops, each serialize (120ns) + propagate (1µs), no queueing.
	wantSer, wantProp := 2*120*Nanosecond, 2*Microsecond
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
// with spans off, the per-packet span hooks are
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
