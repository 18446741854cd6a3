package sim

import "testing"

// releaseSink recycles delivered packets without recording anything, so
// the measurement below sees only the simulator's own allocations.
type releaseSink struct{ net *Network }

func (r *releaseSink) HandlePacket(p *Packet) { r.net.Release(p) }

// TestPacketPathZeroAlloc guards the simulator's allocation-free packet
// path: once the freelist, queue buffers, and lane rings are warm,
// sending a packet end to end (two hops + delivery) must not allocate.
// Telemetry hooks (the engine's nil-Fingerprint branch, the nil-span
// tests, the FlowID stamp) ride the same path, so this also proves
// instrumentation is free when disabled.
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

	// A deep queue costs nothing either: a 100-packet burst (the default
	// queue's whole 150 kB) into one link.
	burst := func() {
		for i := 0; i < 100; i++ {
			p := net.NewPacket()
			p.Size = 1500
			p.Route = fwd
			p.Deliver = s
			net.Send(p)
		}
		eng.Run()
	}
	burst() // warm the freelist and lane rings to the burst's depth
	if avg := testing.AllocsPerRun(20, burst); avg != 0 {
		t.Errorf("allocs per 100-packet burst = %v, want 0", avg)
	}
	if d := net.Stats(fwd[0]).Drops; d != 0 {
		t.Errorf("burst dropped %d packets; it must fit the queue", d)
	}
}
