package chaos

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/obs"
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

func TestPlaneOutageTakesWholePlane(t *testing.T) {
	eng, net, g := twoPlane()
	var sched Schedule
	sched.PlaneOutage(1, 10*sim.Microsecond)
	inj := NewInjector(eng, net, sched)
	inj.Arm()
	eng.RunUntil(11 * sim.Microsecond)
	if inj.LinksDown() != 4 {
		t.Errorf("LinksDown = %d, want plane 1's 4 links", inj.LinksDown())
	}

	for id := 0; id < g.NumLinks(); id++ {
		inPlane := g.Link(graph.LinkID(id)).Plane == 1
		if up := net.LinkUp(graph.LinkID(id)); up == inPlane {
			t.Errorf("link %d (plane %d): up=%v after plane 1 outage", id, g.Link(graph.LinkID(id)).Plane, up)
		}
	}
}

func TestInjectorRecordsFaults(t *testing.T) {
	eng, net, _ := twoPlane()
	var sched Schedule
	sched.PlaneOutage(0, 10*sim.Microsecond)
	inj := NewInjector(eng, net, sched)
	var mbuf bytes.Buffer
	col := obs.NewCollector()
	col.StreamMetrics(&mbuf)
	inj.Obs = col
	var seen []Event
	inj.OnEvent = func(e Event) { seen = append(seen, e) }
	inj.Arm()
	eng.Run()
	if err := col.Close(); err != nil {
		t.Fatal(err)
	}

	var faults []obs.FaultRecord
	for _, line := range strings.Split(strings.TrimSpace(mbuf.String()), "\n") {
		var r obs.FaultRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil || r.Type != obs.KindFault {
			t.Fatalf("metrics line %q: %v; want only fault records", line, err)
		}
		faults = append(faults, r)
	}
	if len(faults) != 1 {
		t.Fatalf("fault records = %d, want 1", len(faults))
	}
	want := obs.FaultRecord{Type: obs.KindFault, TPs: int64(10 * sim.Microsecond), Event: "inject", Target: "plane:0", Plane: 0}
	if faults[0] != want {
		t.Errorf("inject record = %+v, want %+v", faults[0], want)
	}
	if len(seen) != 1 || seen[0] != (Event{At: 10 * sim.Microsecond, Plane: 0}) {
		t.Errorf("OnEvent saw %v, want the one outage", seen)
	}
}

func TestInjectorValidatesTargets(t *testing.T) {
	eng, net, _ := twoPlane()
	cases := []Schedule{
		{Events: []Event{{At: 1, Plane: 9}}},
		{Events: []Event{{At: 1, Plane: 0}, {At: 2, Plane: -1}}},
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
