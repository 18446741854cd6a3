package sim

import "testing"

// releaseSink recycles delivered packets without recording anything, so
// the measurement below sees only the simulator's own allocations.
type releaseSink struct{ net *Network }

func (r *releaseSink) HandlePacket(p *Packet) { r.net.Release(p) }

// TestPacketPathZeroAlloc guards the simulator's allocation-free packet
// path: once the freelist, queue buffers, and lane rings are warm,
// sending a packet end to end (two hops + delivery) must not allocate.
// Telemetry hooks (nil Tracer, FlowID stamp) ride the same path, so this
// also proves instrumentation is free when disabled.
func TestPacketPathZeroAlloc(t *testing.T) {
	eng, net, fwd, _ := hostPair(100, Config{})
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
		t.Errorf("allocs per packet = %v, want 0", avg)
	}
}
