package sim

import "testing"

// TestStatsUnderOverload drives a burst far past a tiny queue's capacity
// and checks the monitoring counters stay consistent with each other:
// every packet either transmits or drops, Stats mirrors the drops array,
// and utilization (Busy over elapsed time) stays in (0, 1] while the
// bottleneck is saturated.
func TestStatsUnderOverload(t *testing.T) {
	// Queue of 2 packets, burst of 20.
	eng, net, fwd, _ := hostPair(100, Config{QueueBytes: 3000})
	s := &sink{eng: eng}
	const burst = 20
	for i := 0; i < burst; i++ {
		p := net.NewPacket()
		p.Size = 1500
		p.Route = fwd
		p.Deliver = s
		net.Send(p)
	}
	eng.Run()

	delivered := int64(len(s.times))
	st := net.Stats(fwd[0])
	if st.Drops == 0 {
		t.Fatal("overload produced no drops")
	}
	if st.Drops != net.drops[fwd[0]] {
		t.Errorf("Stats.Drops = %d, drops[link] = %d", st.Drops, net.drops[fwd[0]])
	}
	if net.TotalDrops() != st.Drops {
		t.Errorf("TotalDrops = %d, want %d (all drops at the first hop)", net.TotalDrops(), st.Drops)
	}
	if delivered+st.Drops != burst {
		t.Errorf("delivered %d + dropped %d != sent %d", delivered, st.Drops, burst)
	}
	if st.TxPackets != delivered || st.TxBytes != delivered*1500 {
		t.Errorf("tx = %d pkts / %d bytes, want %d / %d", st.TxPackets, st.TxBytes, delivered, delivered*1500)
	}
	// Busy time is exactly the survivors' serialization (120 ns each at
	// 100 Gb/s).
	if st.Busy != Time(delivered)*120*Nanosecond {
		t.Errorf("busy = %v, want %v", st.Busy, Time(delivered)*120*Nanosecond)
	}
	if u := st.Busy.Seconds() / eng.Now().Seconds(); u <= 0 || u > 1 {
		t.Errorf("utilization = %v, want (0, 1]", u)
	}
	// Second hop saw only the survivors.
	if st2 := net.Stats(fwd[1]); st2.TxPackets != delivered || st2.Drops != 0 {
		t.Errorf("second hop stats = %+v", st2)
	}
}
