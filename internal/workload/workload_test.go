package workload

import (
	"math/rand"
	"runtime/debug"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/mcf"
	"pnet/internal/route"
	"pnet/internal/sim"
	"pnet/internal/tcp"
	"pnet/internal/topo"
	"pnet/internal/traces"
)

func TestPermutationCommodities(t *testing.T) {
	set := topo.FatTreeSet(4, 1, 100)
	tp := set.SerialLow
	cs := PermutationCommodities(tp, 100, rand.New(rand.NewSource(1)))
	if len(cs) != 16 {
		t.Fatalf("commodities = %d", len(cs))
	}
	srcSeen := map[graph.NodeID]bool{}
	dstSeen := map[graph.NodeID]bool{}
	for _, c := range cs {
		if c.Src == c.Dst {
			t.Fatal("fixed point in permutation")
		}
		if srcSeen[c.Src] || dstSeen[c.Dst] {
			t.Fatal("not a permutation")
		}
		srcSeen[c.Src] = true
		dstSeen[c.Dst] = true
		if c.Demand != 100 {
			t.Fatal("wrong demand")
		}
	}
}

func TestAllToAllCommodities(t *testing.T) {
	set := topo.FatTreeSet(4, 1, 100)
	cs := AllToAllCommodities(set.SerialLow, 2.5)
	if len(cs) != 16*15 {
		t.Fatalf("commodities = %d", len(cs))
	}
}

func TestRackAllToAllCoreOnly(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	tp := set.ParallelHomo
	g, cs := RackAllToAll(tp, 1)
	if len(cs) != 8*7 {
		t.Fatalf("rack commodities = %d, want 56", len(cs))
	}
	// Rack nodes must be non-transit and reachable from each other.
	for _, c := range cs[:5] {
		if fz := g.Frozen(); fz.Transit(c.Src) || fz.Transit(c.Dst) {
			t.Fatal("rack node is transit")
		}
		if ps := graph.KShortestPathsMasked(g, c.Src, c.Dst, 1, nil); len(ps) == 0 {
			t.Fatal("rack nodes disconnected")
		}
	}
	// The original graph is untouched.
	if tp.G.NumNodes() == g.NumNodes() {
		t.Error("RackAllToAll did not copy the graph")
	}
}

func TestRackAllToAllHeteroThroughputAdvantage(t *testing.T) {
	// Figure 7's mechanism in miniature: heterogeneous planes give
	// higher ideal rack-level throughput than the serial high-bandwidth
	// equivalent because some pairs find shorter paths on other planes.
	set := topo.JellyfishSet(12, 3, 2, 4, 100, 21)
	solve := func(tp *topo.Topology) float64 {
		g, cs := RackAllToAll(tp, 10)
		return mcf.Free(g, cs, mcf.Options{Epsilon: 0.08}).Lambda
	}
	hetero := solve(set.ParallelHetero)
	high := solve(set.SerialHigh)
	if hetero < high {
		t.Errorf("hetero ideal throughput %.3f < serial-high %.3f", hetero, high)
	}
}

func newTestDriver(t *testing.T, tp *topo.Topology) *Driver {
	t.Helper()
	return NewDriver(tp, sim.Config{}, tcp.Config{})
}

func TestDriverPathsForPolicies(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	d := newTestDriver(t, set.ParallelHomo)
	src, dst := set.ParallelHomo.Hosts[0], set.ParallelHomo.Hosts[15]

	single, many, err := d.resolve(src, dst, Selection{Policy: Shortest})
	if err != nil || len(single.Links) == 0 || many != nil {
		t.Fatalf("shortest: %v %v %d", err, single, len(many))
	}
	ecmp1, many, err := d.resolve(src, dst, Selection{Policy: ECMP})
	if err != nil || len(ecmp1.Links) == 0 || many != nil {
		t.Fatalf("ecmp: %v %v %d", err, ecmp1, len(many))
	}
	_, ksp, err := d.resolve(src, dst, Selection{Policy: KSP, K: 6})
	if err != nil || len(ksp) != 6 {
		t.Fatalf("ksp: %v %d", err, len(ksp))
	}
	_, kspDefault, err := d.resolve(src, dst, Selection{Policy: KSP})
	if err != nil || len(kspDefault) != 16 { // 8 × 2 planes
		t.Fatalf("ksp default: %v %d", err, len(kspDefault))
	}
}

func TestDriverECMPVariesAcrossFlows(t *testing.T) {
	set := topo.FatTreeSet(4, 4, 100)
	d := newTestDriver(t, set.ParallelHomo)
	src, dst := set.ParallelHomo.Hosts[0], set.ParallelHomo.Hosts[15]
	planes := map[int32]bool{}
	for i := 0; i < 32; i++ {
		p, _, err := d.resolve(src, dst, Selection{Policy: ECMP})
		if err != nil {
			t.Fatal(err)
		}
		planes[p.Plane(d.PNet.Topo.G)] = true
	}
	if len(planes) < 3 {
		t.Errorf("32 ECMP flows covered %d planes, want most of 4", len(planes))
	}
}

func TestStartFlowAndCompletion(t *testing.T) {
	set := topo.FatTreeSet(4, 2, 100)
	d := newTestDriver(t, set.ParallelHomo)
	tp := set.ParallelHomo
	done := 0
	_, err := d.StartFlow(tp.Hosts[0], tp.Hosts[15], 150_000, Selection{Policy: Shortest},
		nil, func(f *tcp.Flow) { done++ })
	if err != nil {
		t.Fatal(err)
	}
	if err := d.MustRunUntil(sim.Second, 1); err != nil {
		t.Fatal(err)
	}
	if done != 1 || d.Completed != 1 {
		t.Errorf("done=%d completed=%d", done, d.Completed)
	}
}

func TestMustRunUntilReportsStall(t *testing.T) {
	set := topo.FatTreeSet(4, 1, 100)
	d := newTestDriver(t, set.SerialLow)
	if err := d.MustRunUntil(sim.Millisecond, 5); err == nil {
		t.Error("no error for unmet completion count")
	}
}

func TestRunRPCPingPong(t *testing.T) {
	set := topo.ScaledJellyfish(8, 2, 100, 3)
	d := newTestDriver(t, set.ParallelHomo)
	samples, err := RunRPC(d, RPCConfig{
		ReqBytes: 1500, RespBytes: 1500,
		Rounds: 3, LoopsPerHost: 1,
		Sel:  Selection{Policy: ECMP},
		Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := set.ParallelHomo.NumHosts() * 3
	if len(samples) != want {
		t.Fatalf("samples = %d, want %d", len(samples), want)
	}
	for _, s := range samples {
		if s <= 0 || s > 0.1 {
			t.Fatalf("implausible RPC time %v s", s)
		}
	}
}

func TestRPCHeteroFasterThanSerial(t *testing.T) {
	// §5.2.1 in miniature: heterogeneous P-Net RPCs beat the serial
	// low-bandwidth network on median completion time thanks to
	// shorter paths.
	set := topo.ScaledJellyfish(16, 4, 100, 7)
	run := func(tp *topo.Topology) float64 {
		d := NewDriver(tp, sim.Config{}, tcp.Config{})
		samples, err := RunRPC(d, RPCConfig{
			ReqBytes: 1500, RespBytes: 1500,
			Rounds: 5, LoopsPerHost: 1,
			Sel:  Selection{Policy: Shortest},
			Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		for _, s := range samples {
			sum += s
		}
		return sum / float64(len(samples))
	}
	serial := run(set.SerialLow)
	hetero := run(set.ParallelHetero)
	if hetero >= serial {
		t.Errorf("hetero mean RPC %.3gs >= serial %.3gs", hetero, serial)
	}
}

func TestRunShuffleStages(t *testing.T) {
	set := topo.ScaledJellyfish(8, 2, 100, 3)
	d := newTestDriver(t, set.ParallelHomo)
	times, err := RunShuffle(d, ShuffleConfig{
		Mappers: 4, Reducers: 4,
		TotalBytes:  64 << 20, // 64 MB total
		BlockBytes:  4 << 20,  // 4 MB blocks
		Concurrency: 2,
		Sel:         Selection{Policy: ECMP},
		Seed:        5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(times.Read) != 4 || len(times.Shuffle) != 4 || len(times.Write) != 4 {
		t.Fatalf("stage sizes: %d %d %d", len(times.Read), len(times.Shuffle), len(times.Write))
	}
	for _, stage := range [][]float64{times.Read, times.Shuffle, times.Write} {
		for _, v := range stage {
			if v <= 0 {
				t.Fatal("non-positive worker completion time")
			}
		}
	}
}

func TestRunTraceClosedLoop(t *testing.T) {
	set := topo.ScaledJellyfish(8, 2, 100, 3)
	d := newTestDriver(t, set.ParallelHomo)
	res, err := RunTrace(d, TraceConfig{
		CDF:          traces.WebServer,
		LoopsPerHost: 2,
		FlowsPerLoop: 3,
		SizeCap:      1 << 20,
		Sel:          Selection{Policy: ECMP},
		Seed:         9,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := set.ParallelHomo.NumHosts() * 2 * 3
	if len(res.FCTs) != want {
		t.Fatalf("flows = %d, want %d", len(res.FCTs), want)
	}
	if len(res.Bytes) != len(res.FCTs) {
		t.Fatal("bytes/fct length mismatch")
	}
	for i, b := range res.Bytes {
		if b < 1 || b > 1<<20 {
			t.Fatalf("size %d outside cap", b)
		}
		if res.FCTs[i] <= 0 {
			t.Fatal("non-positive FCT")
		}
	}
}

var _ = route.Commodity{} // keep import for doc references

// routeChecker reads the per-event trace (a fingerprinter at a cadence of
// one event) and fails the test on a delivered packet whose links are not
// one contiguous path. An ACK route built in the wrong order still gets its
// packet home, one unrelated hop at a time, so only the links it took show
// it. A packet is named by its checkpoints' (flow, seq, size) — one packet
// a name while no flow retransmits — except that a flow's ACKs carry no
// seq and share one. They leave on one route in order and FIFO queues keep
// them so, which makes the k-th checkpoint on a link under a name the k-th
// packet's.
type routeChecker struct {
	t       *testing.T
	g       *graph.Graph
	nth     map[[4]int64]int64          // checkpoints so far by (flow, seq, size, link)
	carried map[[4]int64][]graph.LinkID // links so far by (flow, seq, size, k) of each packet not yet delivered
}

func newRouteChecker(t *testing.T, g *graph.Graph, eng *sim.Engine) *routeChecker {
	c := &routeChecker{t, g, map[[4]int64]int64{}, map[[4]int64][]graph.LinkID{}}
	eng.Fingerprint = sim.NewFingerprinter(1)
	eng.Fingerprint.OnCheckpoint = c.event
	return c
}

func (c *routeChecker) event(cp sim.FingerprintCheckpoint) {
	if cp.Kind != sim.EvHop && cp.Kind != sim.EvDeliver {
		return
	}
	leg := [4]int64{cp.Flow, cp.Seq, int64(cp.Size), cp.Link}
	p := [4]int64{cp.Flow, cp.Seq, int64(cp.Size), c.nth[leg]}
	c.nth[leg]++
	links := append(c.carried[p], graph.LinkID(cp.Link))
	if cp.Kind == sim.EvHop {
		c.carried[p] = links
		return
	}
	delete(c.carried, p)
	if !(graph.Path{Links: links}).Valid(c.g) {
		c.t.Fatalf("flow %d: packet delivered over %v, which is not a path", cp.Flow, links)
	}
}

// TestOnePathFlowOwnsItsRoute: a one-path flow holds its own copy of its
// ECMP route, with the reverse built from it, on a fresh block and on one
// that a released flow of another route left behind. Each round starts a
// flow between every ordered host pair before the engine runs, so every
// walk reuses the Selector's buffer while the flows before it hold their
// routes. The sparse expander gives routes of 3 to 8 links, the longest
// too long for a block's own array.
func TestOnePathFlowOwnsItsRoute(t *testing.T) {
	tp := topo.JellyfishSet(32, 3, 1, 2, 100, 3).ParallelHomo
	d := newTestDriver(t, tp)
	g := tp.G
	routes := newRouteChecker(t, g, d.Eng)
	// A collection would empty the pool of released blocks.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	dags := map[graph.NodeID]*graph.DAG{}
	released := map[*tcp.Flow]bool{}
	// round checks every flow's route against a fresh walk for its hash
	// once all have started, and again once all are done unless they were
	// released. It returns how many flows got a released flow's block.
	round := func(release bool) (reused int) {
		type started struct {
			f    *tcp.Flow
			want graph.Path
		}
		var flows []started
		var retransmits int64
		onComplete := func(f *tcp.Flow) {
			retransmits += f.Retransmits
			if release {
				released[f] = true
				f.Release()
			}
		}
		for _, src := range tp.Hosts {
			for _, dst := range tp.Hosts {
				if src == dst {
					continue
				}
				f, err := d.StartFlow(src, dst, 3*1500, Selection{Policy: ECMP}, nil, onComplete)
				if err != nil {
					t.Fatal(err)
				}
				if dags[dst] == nil {
					dags[dst] = graph.ShortestDAG(g, dst, nil)
				}
				want, _ := graph.ECMPPath(dags[dst], src, d.hashCtr*0x9e3779b97f4a7c15)
				flows = append(flows, started{f, want})
				if released[f] {
					reused++
				}
			}
		}
		check := func(when string) {
			for i, s := range flows {
				if got := s.f.SubflowPath(0); !got.Equal(s.want) {
					t.Fatalf("%s: flow %d of the round runs on %v, its hash walks %v", when, i, got.Links, s.want.Links)
				}
			}
		}
		check("started")
		completed := d.Completed
		d.Eng.Run()
		if n := d.Completed - completed; n != int64(len(flows)) {
			t.Fatalf("%d of %d flows completed", n, len(flows))
		}
		if retransmits != 0 || len(routes.carried) != 0 {
			t.Fatalf("%d retransmits, %d packets never delivered: a checkpoint name is no longer one packet", retransmits, len(routes.carried))
		}
		if !release {
			check("done")
		}
		return reused
	}
	round(true)
	if reused := round(false); reused == 0 {
		t.Error("no flow of the second round got a block the first round released")
	}
}
