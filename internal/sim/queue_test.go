package sim

import (
	"math/rand"
	"slices"
	"testing"
)

// refQueue is a reference output queue held in a []*Packet, with its own
// clock: the admission, trimming, marking and fault rules of queue,
// stepped through the same operations. It serves one link at 100 Gb/s (80
// ps a byte) whose far end delivers.
type refQueue struct {
	cfg  Config
	prop Time

	buf        []*Packet // buf[0] is in transmission when busy
	bytes      int32
	busy, down bool
	txEnd      Time // when buf[0]'s last bit leaves

	wire      []refArrival // departed, in departure order
	delivered []int64      // Seq of every delivered packet, in order
	st        LinkStats

	downBusyQueued, deadArrivals int // how often the fault cases came up
}

type refArrival struct {
	seq int64
	at  Time
}

// advance plays every transmission end and delivery strictly before now:
// an operation scheduled before the run fires ahead of the packet events
// of its own instant.
func (r *refQueue) advance(now Time) {
	for r.busy && r.txEnd < now {
		if r.down {
			r.st.Blackholed += int64(len(r.buf))
			r.buf, r.bytes, r.busy = r.buf[:0], 0, false
			break
		}
		p := r.buf[0]
		r.buf = r.buf[1:]
		r.bytes -= p.Size
		r.wire = append(r.wire, refArrival{p.Seq, r.txEnd + r.prop})
		if len(r.buf) > 0 {
			r.start(r.txEnd)
		} else {
			r.busy = false
		}
	}
	for len(r.wire) > 0 && r.wire[0].at < now {
		r.delivered = append(r.delivered, r.wire[0].seq)
		r.wire = r.wire[1:]
	}
}

func (r *refQueue) start(at Time) {
	tx := Time(r.buf[0].Size) * 80
	r.st.TxPackets++
	r.st.TxBytes += int64(r.buf[0].Size)
	r.st.Busy += tx
	r.txEnd = at + tx
}

func (r *refQueue) enqueue(seq int64, size int32, now Time) {
	if r.down {
		r.st.Blackholed++
		r.deadArrivals++
		return
	}
	capBytes, trim := r.cfg.queueBytes(), r.cfg.TrimToBytes
	limit := capBytes
	if trim > 0 && size <= trim {
		limit += 64 * trim
	}
	if r.bytes+size > limit {
		if trim > 0 && size > trim && r.bytes+trim <= capBytes+64*trim {
			size = trim
			r.st.Trims++
		} else {
			r.st.Drops++
			return
		}
	}
	if r.cfg.ECNThresholdBytes > 0 && r.bytes > r.cfg.ECNThresholdBytes {
		r.st.Marks++
	}
	r.buf = append(r.buf, &Packet{Seq: seq, Size: size})
	r.bytes += size
	if !r.busy {
		r.busy = true
		r.start(now)
	}
}

func (r *refQueue) setUp(up bool) {
	if r.down == !up {
		return
	}
	r.down = !up
	if up {
		return
	}
	keep := 0
	if r.busy {
		keep = 1
		if len(r.buf) > 1 {
			r.downBusyQueued++
		}
	}
	for _, p := range r.buf[keep:] {
		r.bytes -= p.Size
		r.st.Blackholed++
	}
	r.buf = r.buf[:keep]
}

// seqSink records the Seq of each delivered packet and recycles it.
type seqSink struct {
	net  *Network
	seqs []int64
}

func (s *seqSink) HandlePacket(p *Packet) {
	s.seqs = append(s.seqs, p.Seq)
	s.net.Release(p)
}

// TestQueueMatchesSliceModel drives random bursts, with drops, trims, ECN
// marks and link cuts, through one linked-FIFO queue and through refQueue,
// and requires the same deliveries, Stats and QueueDepth at every step.
func TestQueueMatchesSliceModel(t *testing.T) {
	configs := []Config{
		{QueueBytes: 6000},
		{QueueBytes: 6000, TrimToBytes: 64, ECNThresholdBytes: 3000},
	}
	for _, cfg := range configs {
		var downBusyQueued, deadArrivals int
		var total LinkStats
		for seed := int64(1); seed <= 8; seed++ {
			ref := runQueueModel(t, cfg, seed)
			downBusyQueued += ref.downBusyQueued
			deadArrivals += ref.deadArrivals
			total.Drops += ref.st.Drops
			total.Trims += ref.st.Trims
			total.Marks += ref.st.Marks
			total.Blackholed += ref.st.Blackholed
		}
		// The cases the test exists for must have come up.
		if downBusyQueued == 0 || deadArrivals == 0 || total.Drops == 0 || total.Blackholed == 0 {
			t.Errorf("%+v: cut with packets queued %d, arrivals at a dead queue %d, drops %d, blackholed %d: want all > 0",
				cfg, downBusyQueued, deadArrivals, total.Drops, total.Blackholed)
		}
		if cfg.TrimToBytes > 0 && (total.Trims == 0 || total.Marks == 0) {
			t.Errorf("%+v: trims %d, marks %d: want both > 0", cfg, total.Trims, total.Marks)
		}
	}
}

func runQueueModel(t *testing.T, cfg Config, seed int64) *refQueue {
	t.Helper()
	eng, net, fwd, _ := hostPair(100, cfg)
	link := fwd[0]
	route := fwd[:1] // delivered at the switch
	s := &seqSink{net: net}
	ref := &refQueue{cfg: cfg, prop: cfg.propDelay()}

	step := 0
	check := func(what string) {
		t.Helper()
		step++
		got := net.Stats(link)
		if !slices.Equal(s.seqs, ref.delivered) || got != ref.st || net.QueueDepth(link) != ref.bytes {
			t.Fatalf("%+v seed %d step %d (%s at %v):\n delivered %v\n     want %v\n stats %+v\n  want %+v\n depth %d, want %d",
				cfg, seed, step, what, eng.Now(), s.seqs, ref.delivered, got, ref.st, net.QueueDepth(link), ref.bytes)
		}
	}
	send := func(seq int64, size int32) func() {
		return func() {
			ref.advance(eng.Now())
			check("before send")
			p := net.NewPacket()
			p.Size = size
			p.Route = route
			p.Deliver = s
			p.Seq = seq
			net.Send(p)
			ref.enqueue(seq, size, eng.Now())
			check("send")
		}
	}
	setUp := func(up bool) func() {
		return func() {
			ref.advance(eng.Now())
			check("before SetLinkUp")
			net.SetLinkUp(link, up)
			ref.setUp(up)
			check("SetLinkUp")
		}
	}

	// Bursts of up to a dozen packets, one in eight a hundred (enough to
	// overflow even the trimmed-header headroom); a third of them are cut
	// while the head is on the wire, take arrivals while dead, and come
	// back.
	rng := rand.New(rand.NewSource(seed))
	sizes := []int32{1500, 1500, 64, 200, 900}
	var seq int64
	at := Time(0)
	for burst := 0; burst < 40; burst++ {
		at += Time(rng.Intn(1500)) * Nanosecond
		n := rng.Intn(12) + 1
		if rng.Intn(8) == 0 {
			n = 100
		}
		for i := n; i > 0; i-- {
			eng.At(at+Time(rng.Intn(3)), send(seq, sizes[rng.Intn(len(sizes))]))
			seq++
		}
		if rng.Intn(3) == 0 {
			cut := at + Time(rng.Intn(100))*Nanosecond
			eng.At(cut, setUp(false))
			back := cut + Time(rng.Intn(400))*Nanosecond
			for i := rng.Intn(3); i > 0; i-- {
				eng.At(cut+Time(rng.Int63n(int64(back-cut)+1)), send(seq, 1500))
				seq++
			}
			eng.At(back, setUp(true))
			at = back
		}
	}
	eng.Run()
	ref.advance(eng.Now() + 1)
	check("end")
	return ref
}
