package sim

import (
	"maps"
	"testing"
)

// recordEvents attaches a fingerprinter at a cadence of one event, the
// per-event trace, and returns the list its checkpoints go to: one per
// fired event, naming its kind, plane, link, flow, seq and size.
func recordEvents(eng *Engine) *[]FingerprintCheckpoint {
	var log []FingerprintCheckpoint
	eng.Fingerprint = NewFingerprinter(1)
	eng.Fingerprint.OnCheckpoint = func(cp FingerprintCheckpoint) { log = append(log, cp) }
	return &log
}

// TestCheckpointsSeeLifecycle: three packets over two links fire, per
// packet, a transmission on each link, a hop at the switch and a delivery
// at the far host, each checkpoint naming the link it happened on.
func TestCheckpointsSeeLifecycle(t *testing.T) {
	eng, net, fwd, _ := hostPair(100, Config{})
	log := recordEvents(eng)
	s := &sink{eng: eng}
	for i := 0; i < 3; i++ {
		p := net.NewPacket()
		p.Size = 1500
		p.Route = fwd
		p.Deliver = s
		net.Send(p)
	}
	eng.Run()
	type at struct {
		kind EventKind
		link int64
	}
	counts := map[at]int{}
	for _, cp := range *log {
		counts[at{cp.Kind, cp.Link}]++
	}
	want := map[at]int{
		{EvTx, int64(fwd[0])}: 3, {EvTx, int64(fwd[1])}: 3,
		{EvHop, int64(fwd[0])}: 3, {EvDeliver, int64(fwd[1])}: 3,
	}
	if !maps.Equal(counts, want) {
		t.Errorf("events by (kind, link) = %v, want %v", counts, want)
	}
	for _, l := range fwd {
		if st := net.Stats(l); st.TxPackets != 3 || st.Drops != 0 || st.Trims != 0 {
			t.Errorf("link %d: %+v, want 3 packets sent, none dropped or trimmed", l, st)
		}
	}
}

// TestStatsCountDropsAndTrims: four packets into a one-packet queue drop
// three, and with trimming on the same three are trimmed and none drops.
func TestStatsCountDropsAndTrims(t *testing.T) {
	burst := func(cfg Config) LinkStats {
		eng, net, fwd, _ := hostPair(100, cfg)
		s := &sink{eng: eng}
		for i := 0; i < 4; i++ {
			p := net.NewPacket()
			p.Size = 1500
			p.Route = fwd
			p.Deliver = s
			net.Send(p)
		}
		eng.Run()
		return net.Stats(fwd[0])
	}
	if st := burst(Config{QueueBytes: 1500}); st.Drops != 3 || st.Trims != 0 {
		t.Errorf("tiny queue: %d drops, %d trims; want 3 and 0", st.Drops, st.Trims)
	}
	if st := burst(Config{QueueBytes: 1500, TrimToBytes: 64}); st.Trims != 3 || st.Drops != 0 {
		t.Errorf("tiny trimming queue: %d trims, %d drops; want 3 and 0", st.Trims, st.Drops)
	}
}
