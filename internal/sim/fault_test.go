package sim

import (
	"testing"
)

func TestDownLinkBlackholesArrivals(t *testing.T) {
	eng, net, fwd, _ := hostPair(100, Config{})
	s := &sink{eng: eng}

	net.SetLinkUp(fwd[0], false)
	if net.LinkUp(fwd[0]) {
		t.Fatal("link reported up after SetLinkUp(false)")
	}
	for i := 0; i < 3; i++ {
		p := net.NewPacket()
		p.Size = 1500
		p.Route = fwd
		p.Deliver = s
		net.Send(p)
	}
	eng.Run()

	if len(s.times) != 0 {
		t.Errorf("delivered %d packets through a down link", len(s.times))
	}
	if got := net.TotalBlackholed(); got != 3 {
		t.Errorf("blackholed = %d, want 3", got)
	}
	if net.blackholed[fwd[0]] != 3 {
		t.Errorf("blackholed on first link = %d, want 3", net.blackholed[fwd[0]])
	}
	if net.TotalDrops() != 0 {
		t.Errorf("congestion drops = %d, want 0 (faults are not drops)", net.TotalDrops())
	}
	if st := net.Stats(fwd[0]); st.Blackholed != 3 {
		t.Errorf("Stats.Blackholed = %d, want 3", st.Blackholed)
	}
}

func TestLinkDownBlackholesQueuedPackets(t *testing.T) {
	// Queue 5 packets, then cut the link mid-transmission of the first:
	// the head dies when its last bit "leaves", the rest die immediately.
	eng, net, fwd, _ := hostPair(100, Config{})
	s := &sink{eng: eng}
	for i := 0; i < 5; i++ {
		p := net.NewPacket()
		p.Size = 1500
		p.Route = fwd
		p.Deliver = s
		net.Send(p)
	}
	// 1500 B at 100 Gb/s = 120 ns serialization; cut at 60 ns.
	eng.At(60*Nanosecond, func() { net.SetLinkUp(fwd[0], false) })
	eng.Run()

	if len(s.times) != 0 {
		t.Errorf("delivered %d packets across the cut", len(s.times))
	}
	if got := net.TotalBlackholed(); got != 5 {
		t.Errorf("blackholed = %d, want 5", got)
	}
	if net.QueueDepth(fwd[0]) != 0 {
		t.Errorf("down queue holds %d bytes", net.QueueDepth(fwd[0]))
	}
}

func TestPacketPastTheCutStillArrives(t *testing.T) {
	// A packet that fully left the first queue before the cut is
	// propagating on the wire: cutting the link behind it must not
	// retroactively lose it.
	eng, net, fwd, _ := hostPair(100, Config{})
	s := &sink{eng: eng}
	p := net.NewPacket()
	p.Size = 1500
	p.Route = fwd
	p.Deliver = s
	net.Send(p)
	// Serialization ends at 120 ns; cut at 200 ns while propagating.
	eng.At(200*Nanosecond, func() { net.SetLinkUp(fwd[0], false) })
	eng.Run()

	if len(s.times) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(s.times))
	}
	if net.TotalBlackholed() != 0 {
		t.Errorf("blackholed = %d, want 0", net.TotalBlackholed())
	}
}

func TestLinkBackUpResumesDelivery(t *testing.T) {
	eng, net, fwd, _ := hostPair(100, Config{})
	s := &sink{eng: eng}

	net.SetLinkUp(fwd[0], false)
	p := net.NewPacket()
	p.Size = 1500
	p.Route = fwd
	p.Deliver = s
	net.Send(p) // blackholed

	eng.At(Microsecond, func() {
		net.SetLinkUp(fwd[0], true)
		q := net.NewPacket()
		q.Size = 1500
		q.Route = fwd
		q.Deliver = s
		net.Send(q)
	})
	eng.Run()

	if !net.LinkUp(fwd[0]) {
		t.Fatal("link reported down after SetLinkUp(true)")
	}
	if len(s.times) != 1 {
		t.Fatalf("delivered %d packets after re-up, want 1", len(s.times))
	}
	if net.TotalBlackholed() != 1 {
		t.Errorf("blackholed = %d, want 1", net.TotalBlackholed())
	}
	// Delivery timing identical to a fresh link: sent at 1us, two hops of
	// 120 ns serialization + 1 us propagation each.
	want := Microsecond + 2*(120*Nanosecond+Microsecond)
	if s.times[0] != want {
		t.Errorf("delivery at %v, want %v", s.times[0], want)
	}
}

func TestSetLinkUpIdempotent(t *testing.T) {
	_, net, fwd, _ := hostPair(100, Config{})
	net.SetLinkUp(fwd[0], false)
	net.SetLinkUp(fwd[0], false) // no-op
	net.SetLinkUp(fwd[0], true)
	net.SetLinkUp(fwd[0], true) // no-op
	if !net.LinkUp(fwd[0]) {
		t.Error("link not up after paired down/up")
	}
	if net.TotalBlackholed() != 0 {
		t.Errorf("blackholed = %d on an idle link", net.TotalBlackholed())
	}
}
