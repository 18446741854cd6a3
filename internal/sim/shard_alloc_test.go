package sim

import (
	"testing"

	"pnet/internal/graph"
)

// bounceSink returns each delivered packet along the reverse route and
// releases it when it comes home. Round trips matter here: event and
// packet pool entries are freed on the engine that fires them, so a
// one-way stream would migrate one pool entry downstream per packet
// (transports never do that — every data packet begets an ACK, which
// carries the pool entries back).
type bounceSink struct {
	net  *Network
	rev  []graph.LinkID
	back bool
}

func (b *bounceSink) HandlePacket(p *Packet) {
	if b.back {
		b.back = false
		b.net.Release(p)
		return
	}
	b.back = true
	p.Route = b.rev
	b.net.Send(p)
}

// TestWindowPathZeroAlloc guards the sharded engine's allocation-free
// packet path: once the sub-shard pools, window logs, and merge scratch
// are warm, a packet round trip through the window protocol
// (Advance / BeginWindow / RunShard / EndWindow) must not allocate —
// with fingerprinting on, mirroring TestPacketPathZeroAllocFingerprint
// on the serial engine. driveShards (shard_test.go) stands in for
// pdes.Runner.RunUntil.
func TestWindowPathZeroAlloc(t *testing.T) {
	eng, net, fwd, rev := hostPair(100, Config{PropDelay: 500 * Nanosecond})
	// Attach before sharding: NewShardSet copies the fingerprinter into
	// every sub-shard and plane engine.
	eng.Fingerprint = NewFingerprinter(1 << 40)
	hostSide := func(id graph.LinkID) bool {
		src := net.G.Link(id).Src
		return src == 0 || src == 1
	}
	set := NewShardSet(eng, net, 2, 2, 0, hostSide)
	s := &bounceSink{net: net, rev: rev}
	send := func() {
		p := net.NewPacket()
		p.Size = 1500
		p.Route = fwd
		p.Deliver = s
		p.FlowID = 7
		net.Send(p)
		driveShards(set, 1<<60)
	}
	for i := 0; i < 64; i++ {
		send() // warm pools, window logs, and merge scratch
	}
	if avg := testing.AllocsPerRun(100, send); avg != 0 {
		t.Errorf("allocs per packet = %v, want 0", avg)
	}
}
