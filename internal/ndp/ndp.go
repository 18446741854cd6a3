// Package ndp implements a simplified NDP transport [Handley et al.,
// SIGCOMM 2017] — the incast-aware direction the paper points to in §6.5.
// NDP pairs three mechanisms:
//
//   - switches trim overflowing packets to headers instead of dropping
//     them (sim.Config.TrimToBytes), so the receiver learns of every
//     loss one RTT after it happens, never by timeout;
//   - senders spray packets per-packet across all given paths — on a
//     P-Net, across all dataplanes — so no single queue sees a burst;
//   - receivers drive the sender with pull credits, clocking transmission
//     to the receiver's drain rate, which tames incast by construction.
//
// Simplifications versus full NDP, documented here: trimmed headers and
// control packets share the FIFO with data (no priority queueing), the
// first window is paced only by the initial window size, and the
// receiver measures completion (NDP's natural vantage point).
package ndp

import (
	"fmt"

	"pnet/internal/graph"
	"pnet/internal/sim"
)

// The NDP constants no experiment varies.
const (
	// headerSize is the trimmed/control packet size in bytes. The network
	// must be built with sim.Config.TrimToBytes = 64.
	headerSize = 64
	// rtxTimeout is the backstop retransmission timer for lost control
	// packets; NDP rarely needs it because trimming converts data loss
	// into prompt NACKs.
	rtxTimeout = 4 * sim.Millisecond
	// mtu is the data packet size in bytes.
	mtu = 1500
	// initWindow is the unsolicited first window in packets, roughly one
	// BDP of the paper's 100 G / few-µs fabric.
	initWindow = 12
)

// Flow is one NDP transfer: SizePkts MTU packets sprayed over the given
// paths.
type Flow struct {
	net *sim.Network

	// ID labels the flow in packet traces (sim.Packet.FlowID); assign
	// before Start for per-flow telemetry.
	ID int64

	SizePkts int64
	fwd      [][]graph.LinkID // data paths (spray round-robin)
	rev      [][]graph.LinkID // control return paths

	// Sender.
	nextNew  int64
	rtxQueue []int64
	inflight int
	sprayRR  int

	// Receiver.
	got       []uint64 // bitset of received sequences
	gotCount  int64
	returnRR  int
	delivered bool

	// Started is stamped by Start; Finished when the receiver holds all
	// packets (NDP's receiver-driven design makes the receiver the
	// natural completion observer).
	Started, Finished sim.Time

	// OnComplete fires at the receiver on full delivery.
	OnComplete func(*Flow)

	// Trims counts trimmed-data notifications processed (diagnostic).
	Trims int64

	dataH dataHandler
	ctlH  ctlHandler
	// Backstop timer uses the lazy-deadline pattern (see tcp.subflow):
	// armRTx only moves the deadline, so the event heap never fills with
	// cancelled timers.
	rtxDeadline sim.Time
	rtxEv       *sim.Event
}

type dataHandler struct{ f *Flow }

func (h dataHandler) HandlePacket(p *sim.Packet) { h.f.onData(p) }

type ctlHandler struct{ f *Flow }

func (h ctlHandler) HandlePacket(p *sim.Packet) { h.f.onControl(p) }

// control packet kinds, carried in Packet.Aux.
const (
	ctlPull = iota // deliver one more packet (Seq unused)
	ctlNack        // Seq was trimmed: queue it for retransmission (also pulls)
)

// NewFlow prepares an NDP transfer over the given paths.
func NewFlow(net *sim.Network, paths []graph.Path, sizeBytes int64) (*Flow, error) {
	if len(paths) == 0 {
		return nil, fmt.Errorf("ndp: flow needs at least one path")
	}
	if sizeBytes <= 0 {
		return nil, fmt.Errorf("ndp: flow size %d", sizeBytes)
	}
	f := &Flow{
		net:      net,
		SizePkts: (sizeBytes + mtu - 1) / mtu,
	}
	src, dst := paths[0].Src(net.G), paths[0].Dst(net.G)
	for i, p := range paths {
		if p.Src(net.G) != src || p.Dst(net.G) != dst {
			return nil, fmt.Errorf("ndp: path %d endpoints differ", i)
		}
		rev, ok := graph.AppendReverse(nil, net.G, p)
		if !ok {
			return nil, fmt.Errorf("ndp: path %d has no reverse", i)
		}
		f.fwd = append(f.fwd, p.Links)
		f.rev = append(f.rev, rev)
	}
	f.got = make([]uint64, (f.SizePkts+63)/64)
	f.dataH = dataHandler{f}
	f.ctlH = ctlHandler{f}
	return f, nil
}

// Start sprays the initial window.
func (f *Flow) Start() {
	f.Started = f.net.Eng.Now()
	w := int64(initWindow)
	if w > f.SizePkts {
		w = f.SizePkts
	}
	for i := int64(0); i < w; i++ {
		f.sendNext()
	}
	f.armRTx()
}

// sendNext transmits one packet: a queued retransmission if any, else
// fresh data; sprayed on the next path round-robin.
func (f *Flow) sendNext() {
	var seq int64
	switch {
	case len(f.rtxQueue) > 0:
		seq = f.rtxQueue[0]
		f.rtxQueue = f.rtxQueue[1:]
		if f.has(seq) {
			// Already arrived via an earlier retransmission.
			f.sendNext()
			return
		}
	case f.nextNew < f.SizePkts:
		seq = f.nextNew
		f.nextNew++
	default:
		return
	}
	p := f.net.NewPacket()
	p.Size = mtu
	p.Route = f.fwd[f.sprayRR]
	p.Deliver = f.dataH
	p.Seq = seq
	p.FlowID = f.ID
	f.sprayRR = (f.sprayRR + 1) % len(f.fwd)
	f.inflight++
	f.net.Send(p)
}

func (f *Flow) has(seq int64) bool { return f.got[seq/64]&(1<<(seq%64)) != 0 }
func (f *Flow) set(seq int64) bool {
	if f.has(seq) {
		return false
	}
	f.got[seq/64] |= 1 << (seq % 64)
	f.gotCount++
	return true
}

// onData runs at the receiver: record (or NACK) and return a credit.
func (f *Flow) onData(p *sim.Packet) {
	seq := p.Seq
	trimmed := p.Trimmed
	f.net.Release(p)

	kind := int64(ctlPull)
	if trimmed {
		kind = ctlNack
		f.Trims++
	} else if f.set(seq) {
		if f.gotCount == f.SizePkts && !f.delivered {
			f.delivered = true
			f.Finished = f.net.Eng.Now()
			if f.rtxEv != nil {
				f.rtxEv.Cancel()
			}
			if f.OnComplete != nil {
				f.OnComplete(f)
			}
		}
	}

	ctl := f.net.NewPacket()
	ctl.Size = headerSize
	ctl.Route = f.rev[f.returnRR]
	ctl.Deliver = f.ctlH
	ctl.Seq = seq
	ctl.Aux = kind
	ctl.FlowID = f.ID
	f.returnRR = (f.returnRR + 1) % len(f.rev)
	f.net.Send(ctl)
}

// onControl runs at the sender: a pull credit releases the next packet; a
// NACK first queues the trimmed sequence for retransmission.
func (f *Flow) onControl(p *sim.Packet) {
	kind, seq := p.Aux, p.Seq
	f.net.Release(p)
	if f.delivered {
		return
	}
	f.inflight--
	if kind == ctlNack {
		f.rtxQueue = append(f.rtxQueue, seq)
	}
	f.sendNext()
	f.armRTx()
}

// armRTx moves the backstop deadline: if control packets are lost the
// credit clock stalls, and the timer re-sprays every missing sequence.
func (f *Flow) armRTx() {
	eng := f.net.Eng
	f.rtxDeadline = eng.Now() + rtxTimeout
	if f.rtxEv == nil || !f.rtxEv.Pending() {
		f.rtxEv = eng.At(f.rtxDeadline, f.rtxWake)
	}
}

func (f *Flow) rtxWake() {
	if f.delivered {
		return
	}
	eng := f.net.Eng
	if eng.Now() < f.rtxDeadline {
		f.rtxEv = eng.At(f.rtxDeadline, f.rtxWake)
		return
	}
	f.onRTx()
}

func (f *Flow) onRTx() {
	f.inflight = 0
	f.rtxQueue = f.rtxQueue[:0]
	resent := 0
	for seq := int64(0); seq < f.nextNew && resent < initWindow; seq++ {
		if !f.has(seq) {
			f.rtxQueue = append(f.rtxQueue, seq)
			resent++
		}
	}
	for i := 0; i < resent || (resent == 0 && i == 0); i++ {
		f.sendNext()
	}
	f.armRTx()
}
