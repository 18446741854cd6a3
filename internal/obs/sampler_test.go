package obs

import (
	"slices"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/route"
	"pnet/internal/sim"
	"pnet/internal/tcp"
	"pnet/internal/topo"
)

// everyLinkWalk is the sampler's tick as it was before sim.Network kept
// a list of the links that moved: it visits every link, holds its own
// baselines and re-sums every plane's bytes from scratch. It stays as
// the reference the sampler is held to, and reads the network through
// Stats and QueueDepth alone, never through the list.
type everyLinkWalk struct {
	net       *sim.Network
	prevTx    []int64
	prevDrops []int64
	prevBH    []int64
	prevBusy  []sim.Time
}

func newEveryLinkWalk(net *sim.Network) *everyLinkWalk {
	n := net.G.NumLinks()
	return &everyLinkWalk{
		net: net, prevTx: make([]int64, n), prevDrops: make([]int64, n),
		prevBH: make([]int64, n), prevBusy: make([]sim.Time, n),
	}
}

// tick emits the link and plane records of this instant, stamped as
// sampler s stamps its own.
func (w *everyLinkWalk) tick(s *Sampler, to Sink) {
	now := int64(s.Eng.Now())
	planeBytes := map[int32]int64{}
	intervalSec := s.interval.Seconds()
	for i := range w.prevTx {
		id := graph.LinkID(i)
		st := w.net.Stats(id)
		plane := w.net.G.Link(id).Plane
		planeBytes[plane] += st.TxBytes
		depth := w.net.QueueDepth(id)
		if depth > 0 || st.TxBytes != w.prevTx[i] || st.Drops != w.prevDrops[i] || st.Blackholed != w.prevBH[i] {
			util := 0.0
			if intervalSec > 0 {
				util = (st.Busy - w.prevBusy[i]).Seconds() / intervalSec
			}
			to.Link(LinkRecord{
				Type: KindLink, Net: s.NetID, TPs: now, Link: int64(id), Plane: plane,
				QueueBytes: depth, Util: util, TxBytes: st.TxBytes, Drops: st.Drops,
				Blackholed: st.Blackholed,
			})
		}
		w.prevTx[i], w.prevDrops[i], w.prevBH[i], w.prevBusy[i] = st.TxBytes, st.Drops, st.Blackholed, st.Busy
	}
	planes := make([]int32, 0, len(planeBytes))
	for p := range planeBytes {
		planes = append(planes, p)
	}
	slices.Sort(planes)
	for _, p := range planes {
		to.Plane(PlaneRecord{Type: KindPlane, Net: s.NetID, TPs: now, Plane: p, TxBytes: planeBytes[p]})
	}
}

// refereed is a sampler's sink that has the reference walk sample the
// same instants: the engine record opens every tick, and nothing moves
// in the network until the tick returns.
type refereed struct {
	sliceSink           // what the sampler emitted
	want      sliceSink // what the every-link walk makes of the same instants
	s         *Sampler
	ref       *everyLinkWalk
}

func (r *refereed) Engine(rec EngineRecord) {
	r.sliceSink.Engine(rec)
	r.ref.tick(r.s, &r.want)
}

// referee starts a sampler on net with the reference walk beside it,
// both with empty baselines as of now.
func referee(eng *sim.Engine, net *sim.Network, interval sim.Time) *refereed {
	r := &refereed{ref: newEveryLinkWalk(net)}
	r.s = NewSampler(eng, net, interval, r)
	r.s.NetID = 5
	r.s.Start()
	return r
}

// check holds the sampler to the reference record for record, and wants
// at least minLinks link records so that an empty run proves nothing.
func (r *refereed) check(t *testing.T, minLinks int) {
	t.Helper()
	if len(r.want.links) < minLinks {
		t.Fatalf("the reference walk emitted %d link records over %d ticks, want at least %d: the scenario is not what it says", len(r.want.links), len(r.engines), minLinks)
	}
	if len(r.links) != len(r.want.links) {
		t.Errorf("%d link records, the every-link walk emits %d", len(r.links), len(r.want.links))
	}
	for i := 0; i < min(len(r.links), len(r.want.links)); i++ {
		if r.links[i] != r.want.links[i] {
			t.Fatalf("link record %d = %+v,\nthe every-link walk emits %+v", i, r.links[i], r.want.links[i])
		}
	}
	if !slices.Equal(r.planes, r.want.planes) {
		t.Errorf("plane records differ from the every-link walk's (%d against %d)", len(r.planes), len(r.want.planes))
	}
}

// oneLink is a single 1 Gb/s link between two hosts, and the route over it.
func oneLink(cfg sim.Config) (*sim.Engine, *sim.Network, []graph.LinkID) {
	g := graph.New(2)
	ab, _ := g.AddDuplex(0, 1, 1, 0)
	eng := sim.NewEngine()
	return eng, sim.NewNetwork(eng, g, cfg), []graph.LinkID{ab}
}

func send(net *sim.Network, route []graph.LinkID, size int32, to sim.Handler) {
	p := net.NewPacket()
	p.Size = size
	p.Route = route
	p.Deliver = to
	net.Send(p)
}

// TestSamplerMatchesEveryLinkWalk holds the tick that visits only the
// links the network lists as moved to the tick that visited them all.
func TestSamplerMatchesEveryLinkWalk(t *testing.T) {
	// Sixteen TCP flows from four senders into one host over both planes
	// of a k = 4 fat tree, with ten-packet queues: slow-start overshoot
	// drops, RTOs leave the network silent for milliseconds, and links
	// are touched in packet order, not link order. With attachAt > 0 the
	// sampler starts on a network that has carried traffic for that long.
	fatTree := func(attachAt sim.Time) func(*testing.T) {
		return func(t *testing.T) {
			tp := topo.FatTreeSet(4, 2, 100).ParallelHomo
			eng := sim.NewEngine()
			net := sim.NewNetwork(eng, tp.G, sim.Config{QueueBytes: 15000})
			var cs []route.Commodity
			for i := 0; i < 16; i++ {
				cs = append(cs, route.Commodity{Src: tp.Hosts[1+i%4*4], Dst: tp.Hosts[0]})
			}
			flows := make([]*tcp.Flow, len(cs))
			for i, paths := range route.KSPPaths(tp.G, cs, 2) {
				f, err := tcp.NewFlow(net, tcp.Config{}, paths, 150_000)
				if err != nil {
					t.Fatal(err)
				}
				f.ID = int64(i + 1)
				flows[i] = f
				f.Start()
			}
			eng.RunUntil(attachAt)
			r := referee(eng, net, 10*sim.Microsecond)
			eng.Run()
			for _, f := range flows {
				if !f.Done() {
					t.Fatalf("flow %d did not finish", f.ID)
				}
			}
			if net.TotalDrops() == 0 {
				t.Fatal("no drops: the scenario is not what it says")
			}
			if attachAt > 0 && (len(r.links) == 0 || r.links[0].TxBytes <= 1500) {
				t.Fatalf("first link record %+v: the sampler did not start on a network with traffic behind it", r.links)
			}
			r.check(t, 1000)
		}
	}
	t.Run("fat tree, TCP, drops", fatTree(0))
	t.Run("attached after traffic started", fatTree(30*sim.Microsecond))

	// One MTU takes 12 µs at 1 Gb/s. Sent at 9 µs it is news at the 10 µs
	// tick; at the 20 µs tick no counter has moved since, and the link is
	// worth its record for the queue depth alone.
	t.Run("transmission longer than the interval", func(t *testing.T) {
		eng, net, ab := oneLink(sim.Config{})
		r := referee(eng, net, 10*sim.Microsecond)
		eng.At(9*sim.Microsecond, func() { send(net, ab, 1500, &releaseSink{net: net}) })
		eng.Run()
		r.check(t, 2)
		if len(r.links) != 2 || r.links[1].TPs != int64(20*sim.Microsecond) || r.links[1].QueueBytes != 1500 || r.links[1].Util != 0 {
			t.Errorf("link records %+v, want one at 10 µs and one at 20 µs with 1500 B queued and nothing sent since", r.links)
		}
	})

	// A link goes down with one packet mid-transmission and three queued:
	// the three are blackholed at once, the head stays in the queue, its
	// depth the only thing a tick can see, until act reaps it 72 µs later.
	// Packets sent into the dead link after that are blackholed on arrival
	// at an empty queue, with no transmission to announce them.
	t.Run("link down mid-transmission", func(t *testing.T) {
		eng, net, ab := oneLink(sim.Config{})
		r := referee(eng, net, 10*sim.Microsecond)
		to := &releaseSink{net: net}
		for i := 0; i < 4; i++ {
			send(net, ab, 9000, to)
		}
		eng.At(15*sim.Microsecond, func() { net.SetLinkUp(ab[0], false) })
		eng.At(105*sim.Microsecond, func() { send(net, ab, 1500, to) })
		eng.At(155*sim.Microsecond, func() { send(net, ab, 1500, to) })
		eng.At(200*sim.Microsecond, func() {})
		eng.Run()
		if got := net.Stats(ab[0]).Blackholed; got != 6 {
			t.Fatalf("%d packets blackholed, want 6 (three queued, the head, two arrivals)", got)
		}
		r.check(t, 10)
	})

	// A packet larger than the whole queue is dropped at an idle link: no
	// transmission starts and no depth remains, the drop count is all.
	t.Run("drop at an idle queue", func(t *testing.T) {
		eng, net, ab := oneLink(sim.Config{QueueBytes: 1000})
		r := referee(eng, net, 10*sim.Microsecond)
		eng.At(15*sim.Microsecond, func() { send(net, ab, 1500, &releaseSink{net: net}) })
		eng.At(50*sim.Microsecond, func() {})
		eng.Run()
		if net.TotalDrops() != 1 {
			t.Fatalf("%d drops, want 1", net.TotalDrops())
		}
		r.check(t, 1)
	})
}

// TestSamplerTickZeroAllocIdleNetwork is the case the moved list is for:
// 4096 links, three of them busy. A tick emits what the every-link walk
// emits, and leaves on the network's list exactly the queues that still
// hold bytes, so that the next tick visits three links, then none.
func TestSamplerTickZeroAllocIdleNetwork(t *testing.T) {
	const switches = 1024
	g := graph.New(2 + switches)
	g.SetTransit(0, false)
	g.SetTransit(1, false)
	var busy [][]graph.LinkID
	for sw := 0; sw < switches; sw++ {
		up, _ := g.AddDuplex(0, 2+graph.NodeID(sw), 100, int32(sw%4))
		g.AddDuplex(1, 2+graph.NodeID(sw), 100, int32(sw%4))
		if sw%400 == 7 {
			busy = append(busy, []graph.LinkID{up})
		}
	}
	if g.NumLinks() != 4096 || len(busy) != 3 {
		t.Fatalf("%d links, %d busy", g.NumLinks(), len(busy))
	}
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, g, sim.Config{})
	r := referee(eng, net, sim.Microsecond)
	to := &releaseSink{net: net}
	for i := len(busy) - 1; i >= 0; i-- { // touched in descending link order
		for n := 0; n < 20; n++ { // 20 × 120 ns: busy until 2.4 µs
			send(net, busy[i], 1500, to)
		}
	}
	holding := func() []graph.LinkID {
		var ids []graph.LinkID
		for i := 0; i < g.NumLinks(); i++ {
			if net.QueueDepth(graph.LinkID(i)) > 0 {
				ids = append(ids, graph.LinkID(i))
			}
		}
		return ids
	}
	for _, want := range []int{3, 3, 0} {
		eng.RunUntil(eng.Now() + sim.Microsecond)
		if got := holding(); len(got) != want || !slices.Equal(net.MovedLinks(), got) {
			t.Errorf("after the %v tick the network lists %v, the queues holding bytes are %v (want %d)", eng.Now(), net.MovedLinks(), got, want)
		}
	}
	eng.Run()
	if len(r.links) != 9 {
		t.Errorf("%d link records, want 9: three links on three ticks", len(r.links))
	}
	r.check(t, 9)
	r.s.sink = &countSink{} // the referee's own walk allocates
	if avg := testing.AllocsPerRun(100, r.s.tick); avg != 0 {
		t.Errorf("allocs per tick of the idle network = %v, want 0", avg)
	}
}
