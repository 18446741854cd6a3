package sim

import "testing"

func TestLinkStatsCounters(t *testing.T) {
	eng, net, fwd, _ := hostPair(100, Config{})
	s := &sink{eng: eng}
	for i := 0; i < 3; i++ {
		p := net.NewPacket()
		p.Size = 1500
		p.Route = fwd
		p.Deliver = s
		net.Send(p)
	}
	eng.Run()
	st := net.Stats(fwd[0])
	if st.TxPackets != 3 || st.TxBytes != 4500 {
		t.Errorf("stats = %+v", st)
	}
	if st.Busy != 3*120*Nanosecond {
		t.Errorf("busy = %v, want 360ns", st.Busy)
	}
	if st.Drops != 0 || st.Marks != 0 {
		t.Errorf("unexpected drops/marks: %+v", st)
	}
}

func TestECNMarking(t *testing.T) {
	// Queue threshold of 2 packets: a burst of 6 marks the later ones.
	eng, net, fwd, _ := hostPair(100, Config{ECNThresholdBytes: 3000})
	marked := 0
	s := &markSink{eng: eng, marked: &marked}
	for i := 0; i < 6; i++ {
		p := net.NewPacket()
		p.Size = 1500
		p.Route = fwd
		p.Deliver = s
		net.Send(p)
	}
	eng.Run()
	if marked == 0 {
		t.Error("no packets marked CE above threshold")
	}
	if st := net.Stats(fwd[0]); st.Marks == 0 {
		t.Error("mark counter not incremented")
	}
}

func TestECNDisabledByDefault(t *testing.T) {
	eng, net, fwd, _ := hostPair(100, Config{})
	marked := 0
	s := &markSink{eng: eng, marked: &marked}
	for i := 0; i < 20; i++ {
		p := net.NewPacket()
		p.Size = 1500
		p.Route = fwd
		p.Deliver = s
		net.Send(p)
	}
	eng.Run()
	if marked != 0 {
		t.Errorf("%d packets marked with ECN disabled", marked)
	}
}

type markSink struct {
	eng    *Engine
	marked *int
}

func (m *markSink) HandlePacket(p *Packet) {
	if p.CE {
		*m.marked++
	}
}
