package chaos

import (
	"reflect"
	"strings"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/obs"
	"pnet/internal/report"
	"pnet/internal/sim"
)

// twoPlane builds hosts 0,1 attached to two switches (2 = plane 0,
// 3 = plane 1), the minimal two-plane P-Net.
func twoPlane() (*sim.Engine, *sim.Network, *graph.Graph) {
	g := graph.New(4)
	g.SetTransit(0, false)
	g.SetTransit(1, false)
	g.AddDuplex(0, 2, 100, 0) // links 0,1
	g.AddDuplex(1, 2, 100, 0) // links 2,3
	g.AddDuplex(0, 3, 100, 1) // links 4,5
	g.AddDuplex(1, 3, 100, 1) // links 6,7
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, g, sim.Config{})
	return eng, net, g
}

func TestLinkFaultDownAndUp(t *testing.T) {
	eng, net, _ := twoPlane()
	var sched Schedule
	sched.LinkFault(0, 10*sim.Microsecond, 5*sim.Microsecond)
	inj := NewInjector(eng, net, sched)
	inj.Arm()

	eng.RunUntil(12 * sim.Microsecond)
	if net.LinkUp(0) {
		t.Error("link 0 up during fault window")
	}
	if inj.LinksDown() != 1 {
		t.Errorf("LinksDown = %d, want 1", inj.LinksDown())
	}
	eng.RunUntil(20 * sim.Microsecond)
	if !net.LinkUp(0) {
		t.Error("link 0 still down after fault cleared")
	}
	if inj.LinksDown() != 0 {
		t.Errorf("LinksDown = %d, want 0", inj.LinksDown())
	}
}

func TestSwitchCrashTakesAllitsLinks(t *testing.T) {
	eng, net, g := twoPlane()
	var sched Schedule
	sched.SwitchCrash(2, 10*sim.Microsecond, 0)
	inj := NewInjector(eng, net, sched)
	inj.Arm()
	eng.RunUntil(11 * sim.Microsecond)

	for id := 0; id < g.NumLinks(); id++ {
		l := g.Link(graph.LinkID(id))
		touches := l.Src == 2 || l.Dst == 2
		if up := net.LinkUp(graph.LinkID(id)); up == touches {
			t.Errorf("link %d (src=%d dst=%d): up=%v after switch 2 crash", id, l.Src, l.Dst, up)
		}
	}
}

func TestPlaneOutageTakesWholePlane(t *testing.T) {
	eng, net, g := twoPlane()
	var sched Schedule
	sched.PlaneOutage(1, 10*sim.Microsecond, 0)
	inj := NewInjector(eng, net, sched)
	inj.Arm()
	eng.RunUntil(11 * sim.Microsecond)

	for id := 0; id < g.NumLinks(); id++ {
		inPlane := g.Link(graph.LinkID(id)).Plane == 1
		if up := net.LinkUp(graph.LinkID(id)); up == inPlane {
			t.Errorf("link %d (plane %d): up=%v after plane 1 outage", id, g.Link(graph.LinkID(id)).Plane, up)
		}
	}
}

func TestOverlappingFaultsRefcount(t *testing.T) {
	// Link 4 is in plane 1. A link fault inside a plane outage: the link
	// must stay down until BOTH clear.
	eng, net, _ := twoPlane()
	var sched Schedule
	sched.PlaneOutage(1, 10*sim.Microsecond, 20*sim.Microsecond) // down 10..30
	sched.LinkFault(4, 15*sim.Microsecond, 30*sim.Microsecond)   // down 15..45
	inj := NewInjector(eng, net, sched)
	inj.Arm()

	eng.RunUntil(32 * sim.Microsecond) // plane cleared, link fault not
	if net.LinkUp(4) {
		t.Error("link 4 up after plane cleared but link fault still active")
	}
	if !net.LinkUp(6) {
		t.Error("link 6 (plane-only) still down after plane cleared")
	}
	eng.RunUntil(50 * sim.Microsecond)
	if !net.LinkUp(4) {
		t.Error("link 4 still down after both faults cleared")
	}
}

func TestFlapSchedule(t *testing.T) {
	var sched Schedule
	sched.Flap(3, 10*sim.Microsecond, 4*sim.Microsecond, 3)
	if len(sched.Events) != 6 {
		t.Fatalf("flap events = %d, want 6", len(sched.Events))
	}
	// Cycle i: down at 10+4i, up at 12+4i.
	wantDown := []sim.Time{10, 14, 18}
	for i, e := range sched.Events {
		if i%2 == 0 {
			if e.Kind != LinkDown || e.At != wantDown[i/2]*sim.Microsecond {
				t.Errorf("event %d = %v", i, e)
			}
		} else if e.Kind != LinkUp || e.At != (wantDown[i/2]+2)*sim.Microsecond {
			t.Errorf("event %d = %v", i, e)
		}
	}
}

func TestPoissonDeterministicAndPaired(t *testing.T) {
	links := []graph.LinkID{0, 2}
	build := func() Schedule {
		var s Schedule
		s.Poisson(7, links, 100*sim.Microsecond, 10*sim.Microsecond, sim.Millisecond)
		return s
	}
	a, b := build(), build()
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("same seed produced different poisson schedules")
	}
	if len(a.Events) == 0 {
		t.Fatal("poisson produced no events over 10 expected failures")
	}
	// Every down must be paired with an up (truncation at `until` keeps
	// the pair), and times must be sorted.
	downs, ups := 0, 0
	for i, e := range a.Events {
		if e.Kind == LinkDown {
			downs++
		} else {
			ups++
		}
		if i > 0 && e.At < a.Events[i-1].At {
			t.Fatalf("events not time-sorted at %d", i)
		}
	}
	if downs != ups {
		t.Errorf("downs=%d ups=%d, want paired", downs, ups)
	}

	var c Schedule
	c.Poisson(8, links, 100*sim.Microsecond, 10*sim.Microsecond, sim.Millisecond)
	if reflect.DeepEqual(a.Events, c.Events) {
		t.Error("different seeds produced identical schedules")
	}
}

func TestInjectorRecordsFaults(t *testing.T) {
	eng, net, _ := twoPlane()
	var sched Schedule
	sched.PlaneOutage(0, 10*sim.Microsecond, 10*sim.Microsecond)
	inj := NewInjector(eng, net, sched)
	col, rec := obs.NewCollector(), &report.Stream{}
	col.Sink = rec
	inj.Obs = col
	var seen []Event
	inj.OnEvent = func(e Event) { seen = append(seen, e) }
	inj.Arm()
	eng.Run()

	if len(rec.Faults) != 2 {
		t.Fatalf("fault records = %d, want 2", len(rec.Faults))
	}
	if rec.Faults[0].Event != "inject" || rec.Faults[0].Target != "plane:0" || rec.Faults[0].Plane != 0 {
		t.Errorf("inject record = %+v", rec.Faults[0])
	}
	if rec.Faults[1].Event != "clear" || rec.Faults[1].TPs != int64(20*sim.Microsecond) {
		t.Errorf("clear record = %+v", rec.Faults[1])
	}
	if len(seen) != 2 {
		t.Errorf("OnEvent saw %d events, want 2", len(seen))
	}
}

func TestInjectorValidatesTargets(t *testing.T) {
	eng, net, _ := twoPlane()
	cases := []Schedule{
		{Events: []Event{{At: 1, Kind: LinkDown, Link: 99}}},
		{Events: []Event{{At: 1, Kind: SwitchDown, Node: 99}}},
		{Events: []Event{{At: 1, Kind: PlaneDown, Plane: 9}}},
	}
	for i, sched := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: bad target did not panic", i)
				}
			}()
			NewInjector(eng, net, sched)
		}()
	}
}

// TestScheduleCheck: every target kind a graph lacks is an error naming
// the event and the target, and a schedule within the graph passes.
func TestScheduleCheck(t *testing.T) {
	_, _, g := twoPlane()
	cases := []struct {
		ev   Event
		want string // "" = accepted
	}{
		{Event{At: 1, Kind: LinkDown, Link: 7}, ""},
		{Event{At: 1, Kind: SwitchUp, Node: 3}, ""},
		{Event{At: 1, Kind: PlaneDown, Plane: 1}, ""},
		{Event{At: 1, Kind: LinkDown, Link: 8}, "link:8 link-down: link 8 out of range [0,8)"},
		{Event{At: 1, Kind: LinkUp, Link: -1}, "link -1 out of range"},
		{Event{At: 1, Kind: SwitchDown, Node: 99}, "switch:99 switch-down: node 99 out of range [0,4)"},
		{Event{At: 1, Kind: PlaneDown, Plane: 9}, "plane:9 plane-down: no links in plane 9"},
		{Event{At: 1, Kind: PlaneUp, Plane: -1}, "no links in plane -1"},
	}
	for _, c := range cases {
		err := Schedule{Events: []Event{{At: 0, Kind: LinkDown, Link: 0}, c.ev}}.Check(g)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%v: %v, want accepted", c.ev, err)
		case c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)):
			t.Errorf("%v: error %v, want one containing %q", c.ev, err, c.want)
		}
	}
}

func TestParseSpec(t *testing.T) {
	spec, err := ParseSpec("plane:1@30ms; link:2@10ms+5ms; flap:3@1ms*2/500us")
	if err != nil {
		t.Fatal(err)
	}
	_, _, g := twoPlane()
	sched := spec.Build(g, 1)
	// plane outage (1 event, permanent) + link fault (2) + flap 2 cycles (4).
	if len(sched.Events) != 7 {
		t.Fatalf("events = %d, want 7: %v", len(sched.Events), sched.Events)
	}
	if sched.Events[0].At != sim.Millisecond || sched.Events[0].Kind != LinkDown {
		t.Errorf("first event = %v, want flap down at 1ms", sched.Events[0])
	}
	last := sched.Events[len(sched.Events)-1]
	if last.Kind != PlaneDown || last.At != 30*sim.Millisecond {
		t.Errorf("last event = %v, want plane down at 30ms", last)
	}
}

func TestParseSpecPoisson(t *testing.T) {
	spec, err := ParseSpec("poisson:mttf=100us,mttr=10us,until=1ms,plane=1")
	if err != nil {
		t.Fatal(err)
	}
	_, _, g := twoPlane()
	a := spec.Build(g, 42)
	b := spec.Build(g, 42)
	if !reflect.DeepEqual(a.Events, b.Events) {
		t.Fatal("same seed produced different schedules via spec")
	}
	for _, e := range a.Events {
		if g.Link(e.Link).Plane != 1 {
			t.Fatalf("poisson plane=1 touched link %d of plane %d", e.Link, g.Link(e.Link).Plane)
		}
	}
}

func TestParseSpecErrors(t *testing.T) {
	bad := []string{
		"gibberish",
		"link:abc@1ms",
		"link:1",
		"link:1@1ms+0ms",
		"flap:1@1ms",
		"flap:1@1ms*0/1ms",
		"poisson:mttf=1ms",
		"poisson:mttf=1ms,mttr=1ms,until=1ms,bogus=2",
		";;",
	}
	for _, s := range bad {
		if _, err := ParseSpec(s); err == nil {
			t.Errorf("ParseSpec(%q) accepted", s)
		}
	}
	if spec, err := ParseSpec(""); spec != nil || err != nil {
		t.Errorf("empty spec = %v, %v; want nil, nil", spec, err)
	}
}

// TestParseSpecErrorStrings pins the exact error text of every ParseSpec
// failure path: these strings are the CLI's only diagnostics for a bad
// -chaos flag, so changing one is a user-visible break that should show
// up in review, not in a bug report.
func TestParseSpecErrorStrings(t *testing.T) {
	cases := []struct {
		spec string
		want string
	}{
		{"gibberish",
			`chaos spec "gibberish": missing ':' (want kind:...)`},
		{"warp:1@1ms",
			`chaos spec "warp:1@1ms": unknown kind "warp" (want link|switch|plane|flap|poisson)`},
		{"link:abc@1ms",
			`chaos spec "link:abc@1ms": bad id "abc": strconv.ParseInt: parsing "abc": invalid syntax`},
		{"link:1",
			`chaos spec "link:1": missing '@' (want link:ID@T)`},
		{"switch:1",
			`chaos spec "switch:1": missing '@' (want switch:ID@T)`},
		{"link:1@xx",
			`chaos spec "link:1@xx": bad duration "xx": time: invalid duration "xx"`},
		{"link:1@-1ms",
			`chaos spec "link:1@-1ms": negative duration "-1ms"`},
		{"link:1@1ms+0ms",
			`chaos spec "link:1@1ms+0ms": duration must be positive, got "0ms"`},
		{"link:1@2562047h",
			`chaos spec "link:1@2562047h": duration "2562047h" is beyond sim time's range (about 106 days)`},
		{"link:0@2000h+2000h",
			`chaos spec "link:0@2000h+2000h": duration "2000h+2000h" is beyond sim time's range (about 106 days)`},
		{"flap:0@2000h*3/2000h",
			`chaos spec "flap:0@2000h*3/2000h": duration "2000h*3/2000h" is beyond sim time's range (about 106 days)`},
		{"flap:1@1ms",
			`chaos spec "flap:1@1ms": missing '*' (want flap:ID@T*N/P)`},
		{"flap:1@1ms*2",
			`chaos spec "flap:1@1ms*2": missing '/' (want flap:ID@T*N/P)`},
		{"flap:1@1ms*0/1ms",
			`chaos spec "flap:1@1ms*0/1ms": bad cycle count "0"`},
		{"flap:1@1ms*2/0ms",
			`chaos spec "flap:1@1ms*2/0ms": period must be positive, got "0ms"`},
		{"poisson:junk",
			`chaos spec "poisson:junk": bad key=value "junk"`},
		{"poisson:mttf=1ms,mttr=1ms,until=1ms,bogus=2",
			`chaos spec "poisson:mttf=1ms,mttr=1ms,until=1ms,bogus=2": unknown key "bogus"`},
		{"poisson:mttf=1ms",
			`chaos spec "poisson:mttf=1ms": poisson needs positive mttf, mttr, until`},
		{";;",
			`chaos spec ";;": no entries`},
	}
	for _, c := range cases {
		_, err := ParseSpec(c.spec)
		if err == nil {
			t.Errorf("ParseSpec(%q) accepted", c.spec)
			continue
		}
		if err.Error() != c.want {
			t.Errorf("ParseSpec(%q)\n  got:  %s\n  want: %s", c.spec, err, c.want)
		}
	}
}
