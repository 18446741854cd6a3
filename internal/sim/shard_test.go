package sim

import (
	"reflect"
	"testing"

	"pnet/internal/graph"
)

// driveShards is pdes.Runner.RunUntil inlined with the shards run one
// after another: the same in-window code path the gang executes, minus
// the dispatch (and without moving the clocks on to the deadline).
func driveShards(set *ShardSet, deadline Time) {
	for {
		limit, parallel, done := set.Advance(deadline)
		if done {
			return
		}
		if !parallel {
			if !set.StepSerial() {
				return
			}
			continue
		}
		set.BeginWindow(limit)
		for i := 0; i < set.Engines(); i++ {
			set.RunShard(i, limit)
		}
		set.EndWindow()
	}
}

// TestShardAfterSerialStart: a ShardSet built on an engine that has
// already run must pick up everything the serial engine left queued —
// arrivals on the lane, tx-completes on the heap, live and cancelled
// timers on the timer heap — with seqs intact, so the rest of the run
// fires the events an all-serial run fires, in the same order.
func TestShardAfterSerialStart(t *testing.T) {
	type delivery struct {
		at        Time
		flow, seq int64
	}
	run := func(shardAt Time) (global, host uint64, planes []uint64, got []delivery) {
		// Two hosts (0, 1) joined through one switch per plane (2, 3).
		g := graph.New(4)
		g.SetTransit(0, false)
		g.SetTransit(1, false)
		var fwd [2][]graph.LinkID
		for pl := int32(0); pl < 2; pl++ {
			sw := graph.NodeID(2 + pl)
			up, _ := g.AddDuplex(0, sw, 100, pl)
			_, down := g.AddDuplex(1, sw, 100, pl)
			fwd[pl] = []graph.LinkID{up, down}
		}
		eng := NewEngine()
		eng.Fingerprint = NewFingerprinter(16)
		net := NewNetwork(eng, g, Config{})
		var dst sinkFn
		dst.fn = func(p *Packet) {
			got = append(got, delivery{eng.Now(), p.FlowID, p.Seq})
			net.Release(p)
		}
		send := func(pl int, seq int64) {
			p := net.NewPacket()
			p.Size = 1500
			p.Route = fwd[pl]
			p.Deliver = &dst
			p.FlowID = int64(pl + 1)
			p.Seq = seq
			net.Send(p)
		}
		// A burst on each plane (1.2 µs of uplink time, then the same on
		// the downlinks 1 µs later), so at 600 ns and at 1.5 µs packets
		// are on a wire and a link is mid-transmission; an "RTO" that
		// sends one more packet long after; and a timer cancelled early.
		for seq := int64(0); seq < 20; seq++ {
			send(int(seq%2), seq)
		}
		eng.After(100*Microsecond, func() { send(0, 20) })
		eng.After(50*Microsecond, func() { t.Error("cancelled timer fired") }).Cancel()

		const end = 200 * Microsecond
		if shardAt < 0 {
			eng.RunUntil(end)
		} else {
			eng.RunUntil(shardAt)
			if shardAt > 0 && (eng.lane.n == 0 || len(eng.events) == 0 || len(eng.timers) != 2) {
				t.Fatalf("at %v: lane %d, heap %d, timers %d: the re-home has nothing to prove",
					shardAt, eng.lane.n, len(eng.events), len(eng.timers))
			}
			queued := eng.HeapLen()
			hostSide := func(id graph.LinkID) bool { return !g.Transit(g.Link(id).Src) }
			set := NewShardSet(eng, net, 2, 1, 0, hostSide)
			if eng.lane.n != 0 || eng.HeapLen() != queued {
				t.Fatalf("re-home left %d on the lane, HeapLen %d → %d", eng.lane.n, queued, eng.HeapLen())
			}
			driveShards(set, end)
		}
		if eng.HeapLen() != 0 {
			t.Errorf("shardAt %v: %d events still queued", shardAt, eng.HeapLen())
		}
		global, host, planes = eng.Fingerprint.Chains()
		return
	}

	wg, wh, wp, want := run(-1)
	if len(want) != 21 {
		t.Fatalf("serial run delivered %d packets, want 21", len(want))
	}
	for _, shardAt := range []Time{0, 600 * Nanosecond, 1500 * Nanosecond} {
		gg, gh, gp, got := run(shardAt)
		if gg != wg || gh != wh || !reflect.DeepEqual(gp, wp) {
			t.Errorf("sharded at %v: chains %016x/%016x/%x, serial %016x/%016x/%x", shardAt, gg, gh, gp, wg, wh, wp)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("sharded at %v: deliveries differ from the serial run\n got %v\nwant %v", shardAt, got, want)
		}
	}
}
