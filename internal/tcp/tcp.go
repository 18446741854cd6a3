// Package tcp implements the transports the paper simulates on htsim:
// TCP NewReno and MPTCP with Linked-Increases (LIA) coupled congestion
// control [Wischik et al., NSDI 2011; RFC 6356]. A Flow moves a fixed
// number of MTU-sized packets from one host to another over one or more
// subflows, each pinned to a source-routed path — in a P-Net, each subflow
// therefore lives entirely within one dataplane.
//
// The model follows htsim's conventions: packet-counted congestion
// windows, 1500 B data packets, 64 B cumulative ACKs, fast retransmit at
// three duplicate ACKs, go-back-N on retransmission timeout, and a 10 ms
// minimum RTO as the paper tunes per DCTCP guidance.
package tcp

import (
	"fmt"
	"math"

	"pnet/internal/graph"
	"pnet/internal/sim"
)

// The transport constants no experiment varies.
const (
	// ackSize is the ACK packet size in bytes.
	ackSize = 64
	// rtoMin floors the retransmission timeout: the paper's tuning
	// following DCTCP.
	rtoMin = 10 * sim.Millisecond
	// dctcpGain is the EWMA gain g for DCTCP's marking estimate.
	dctcpGain = 1.0 / 16
)

// Config holds transport parameters. The zero value selects the defaults
// described in the package comment.
type Config struct {
	// MTU is the data packet size in bytes (default 1500).
	MTU int32
	// InitCwnd is the initial congestion window in packets (default 10).
	InitCwnd float64
	// DupAckThresh triggers fast retransmit (default 3).
	DupAckThresh int
	// Uncoupled disables LIA: each subflow runs an independent NewReno
	// window. The default (false) couples subflows, which only matters
	// for flows with more than one path.
	Uncoupled bool
	// NoSACK disables selective-repeat loss recovery. By default the
	// sender repairs all holes during fast recovery, one per returning
	// ACK (modelling SACK); without it, recovery degrades to NewReno's
	// one-hole-per-RTT partial-ack repair, which badly inflates FCTs
	// after the burst losses of slow-start overshoot.
	NoSACK bool
	// DCTCP enables ECN-reaction congestion control [Alizadeh et al.,
	// SIGCOMM 2010], the paper's suggested direction for incast traffic
	// (§6.5): receivers echo CE marks, and once per window the sender
	// scales cwnd by the EWMA marking fraction. Requires the network to
	// be built with a nonzero sim.Config.ECNThresholdBytes.
	DCTCP bool
	// StallRTOs, when positive, treats that many consecutive timeouts on
	// one subflow as a stalled path and consults Flow.Repath for a
	// replacement — MPTCP's re-establishment of subflows on surviving
	// planes after a runtime fault. Zero disables repathing.
	StallRTOs int
}

func (c Config) withDefaults() Config {
	if c.MTU == 0 {
		c.MTU = 1500
	}
	if c.InitCwnd == 0 {
		c.InitCwnd = 10
	}
	if c.DupAckThresh == 0 {
		c.DupAckThresh = 3
	}
	return c
}

// Flow is one (MP)TCP transfer.
type Flow struct {
	net *sim.Network
	cfg Config

	// ID labels the flow in packet traces (sim.Packet.FlowID). Callers
	// that want per-flow telemetry assign it before Start; the workload
	// driver numbers flows 1..n in start order.
	ID int64

	// SizePkts is the transfer length in MTU packets.
	SizePkts int64
	subs     []*subflow
	assigned int64 // packets handed to subflows for first transmission
	rcvd     int64 // distinct packets seen by the receiver

	// Started and Finished bracket the transfer: Started is set by
	// Start, Finished when the last ACK returns to the sender.
	Started, Finished sim.Time
	done              bool
	started           bool

	// OnComplete fires at the sender when every packet is acked.
	OnComplete func(*Flow)
	// OnDelivered fires at the receiver when every packet has arrived.
	OnDelivered func(*Flow)

	// Retransmits counts data packets sent more than once.
	Retransmits int64

	// Repath, consulted when Config.StallRTOs consecutive timeouts hit
	// one subflow, may return a replacement path (same endpoints). The
	// subflow keeps its sequence space and receiver state — only the
	// route changes, like an MPTCP subflow re-established on a surviving
	// plane. Returning ok=false, the current path, or a path without a
	// reverse twin leaves the subflow where it is.
	Repath func(f *Flow, subflow int) (graph.Path, bool)
	// OnRepath observes every successful path swap.
	OnRepath func(f *Flow, subflow int, to graph.Path)
	// Repaths counts successful subflow path swaps.
	Repaths int64

	// Latency attribution (sim.Network.EnableSpans): the flow's lifetime
	// is partitioned at sender-side ACK-progress instants and each
	// interval charged to the journey of the packet whose delivery
	// produced the progress, so the attribution totals sum to the FCT
	// exactly. spanOn is latched from the network at NewFlow.
	spanOn       bool
	lastProgress sim.Time
	attrib       sim.SpanAttribution
}

// NewFlow prepares a transfer of sizeBytes over the given paths (one
// subflow per path). Paths must share endpoints and each must have a
// reverse twin for ACKs.
func NewFlow(net *sim.Network, cfg Config, paths []graph.Path, sizeBytes int64) (*Flow, error) {
	cfg = cfg.withDefaults()
	if len(paths) == 0 {
		return nil, fmt.Errorf("tcp: flow needs at least one path")
	}
	if sizeBytes <= 0 {
		return nil, fmt.Errorf("tcp: flow size %d", sizeBytes)
	}
	// A one-path flow, almost every flow, is one heap object: the Flow,
	// its subflow and the subs array in one block.
	var f *Flow
	var one *subflow
	if len(paths) == 1 {
		b := new(onePathFlow)
		f, one = &b.f, &b.sf
		f.subs = b.subs[:0]
	} else {
		f = new(Flow)
		f.subs = make([]*subflow, 0, len(paths))
	}
	f.net = net
	f.cfg = cfg
	f.SizePkts = (sizeBytes + int64(cfg.MTU) - 1) / int64(cfg.MTU)
	f.spanOn = net.SpansOn()
	src, dst := paths[0].Src(net.G), paths[0].Dst(net.G)
	for i, p := range paths {
		if i > 0 && (p.Src(net.G) != src || p.Dst(net.G) != dst) {
			return nil, fmt.Errorf("tcp: path %d endpoints differ from path 0", i)
		}
		rev, ok := graph.ReversePath(net.G, p)
		if !ok {
			return nil, fmt.Errorf("tcp: path %d has no reverse", i)
		}
		sf := one
		if sf == nil {
			sf = new(subflow)
		}
		// sf is zeroed memory: set the fields rather than copy in a
		// subflow literal built on the stack.
		sf.f, sf.idx = f, i
		sf.fwd, sf.rev = p.Links, rev.Links
		sf.cwnd, sf.ssthresh = cfg.InitCwnd, math.Inf(1)
		sf.dctcpAlpha = 1 // DCTCP starts with α=1 (react strongly to the first marks).
		f.subs = append(f.subs, sf)
	}
	return f, nil
}

// onePathFlow is the single allocation behind a one-path Flow: 216 + 272
// + 8 bytes, in the 512-byte size class with 16 to spare, so a field of
// more than that added to Flow or subflow costs every flow the next class
// (576); TestOnePathFlowSize holds it.
type onePathFlow struct {
	f    Flow
	sf   subflow
	subs [1]*subflow
}

// Subflows returns the number of subflows.
func (f *Flow) Subflows() int { return len(f.subs) }

// SubflowPath returns subflow i's current forward path — after a repath,
// the replacement, not the path the flow started on. Callers must not
// mutate the links.
func (f *Flow) SubflowPath(i int) graph.Path { return graph.Path{Links: f.subs[i].fwd} }

// FCT returns the flow completion time; valid once done.
func (f *Flow) FCT() sim.Time { return f.Finished - f.Started }

// Done reports whether every packet has been acked.
func (f *Flow) Done() bool { return f.done }

// DeliveredPkts returns the number of distinct packets the receiver has
// seen so far — the flow's goodput numerator for in-progress sampling.
func (f *Flow) DeliveredPkts() int64 { return f.rcvd }

// Start begins transmission at the current simulated time.
func (f *Flow) Start() {
	if f.started {
		panic("tcp: flow started twice")
	}
	f.started = true
	f.Started = f.net.Eng.Now()
	f.lastProgress = f.Started
	for _, sf := range f.subs {
		sf.trySend()
	}
}

// Attribution returns the flow's FCT decomposition as (component, plane,
// duration) cells sorted by (component, plane). Empty unless the network
// had spans enabled before the flow was created; once the flow is done,
// the durations sum to FCT() exactly.
func (f *Flow) Attribution() []sim.SpanTotal { return f.attrib.Totals() }

// AttributedTime returns the total simulated time attributed so far —
// equal to FCT() once the flow is done.
func (f *Flow) AttributedTime() sim.Time { return f.attrib.Total() }

func (f *Flow) checkComplete() {
	if f.done || f.assigned < f.SizePkts {
		return
	}
	for _, sf := range f.subs {
		if sf.sndUna < sf.sndMax {
			return
		}
	}
	f.done = true
	f.Finished = f.net.Eng.Now()
	for _, sf := range f.subs {
		if sf.rtoEv != nil {
			sf.rtoEv.Cancel()
		}
	}
	if f.OnComplete != nil {
		f.OnComplete(f)
	}
}

// totalCwnd sums the windows of subflows (LIA's w_total).
func (f *Flow) totalCwnd() float64 {
	var t float64
	for _, sf := range f.subs {
		t += sf.cwnd
	}
	return t
}

// liaAlpha computes the MPTCP LIA aggressiveness parameter
// (RFC 6356 §3): alpha = w_total * max_i(w_i/rtt_i^2) / (sum_i w_i/rtt_i)^2.
// Subflows without an RTT sample assume the flow's best-known RTT.
func (f *Flow) liaAlpha() float64 {
	var best sim.Time = math.MaxInt64
	for _, sf := range f.subs {
		if sf.srtt > 0 && sf.srtt < best {
			best = sf.srtt
		}
	}
	if best == math.MaxInt64 {
		best = sim.Millisecond // arbitrary; cancels out when all equal
	}
	var maxTerm, sumTerm float64
	for _, sf := range f.subs {
		rtt := sf.srtt
		if rtt == 0 {
			rtt = best
		}
		r := rtt.Seconds()
		if term := sf.cwnd / (r * r); term > maxTerm {
			maxTerm = term
		}
		sumTerm += sf.cwnd / r
	}
	if sumTerm == 0 {
		return 1
	}
	return f.totalCwnd() * maxTerm / (sumTerm * sumTerm)
}

// subflow carries one path's sender and receiver state.
type subflow struct {
	f   *Flow
	idx int
	// fwd is the caller's path, which other flows may share (the ECMP
	// routes core.PNet interns), so it is only ever read.
	fwd, rev []graph.LinkID

	// Sender.
	cwnd, ssthresh float64
	sndUna, sndNxt int64 // subflow packet sequence space
	sndMax         int64
	dupacks        int
	recover        int64 // sndMax when fast recovery (inRecovery) began
	holeCursor     int64 // next sequence considered for SACK repair
	srtt, rttvar   sim.Time

	// DCTCP state: per-window mark accounting and the EWMA estimate.
	dctcpAlpha  float64
	ackedInWin  int64
	markedInWin int64
	winEnd      int64 // window boundary in subflow sequence space
	// RTO uses a lazy wakeup: armRTO only moves rtoDeadline; at most one
	// event is ever scheduled, and a stale firing re-schedules itself to
	// the current deadline. This keeps the event heap free of the
	// millions of cancelled timers a cancel-per-packet scheme creates.
	rtoDeadline sim.Time
	rtoEv       *sim.Event
	backoff     uint
	consecRTOs  int // timeouts since the last ACK progress; repath trigger
	timedSeq    int64
	timedAt     sim.Time
	// The one-byte fields sit together: padding each to a word would
	// take a one-path flow past its 512-byte block (onePathFlow).
	inRecovery bool
	timing     bool
	// spanCause classifies the next transmission for latency attribution:
	// fresh (window-clocked), RTO retransmission, or first send after a
	// repath. Reset to fresh on ACK progress.
	spanCause sim.SpanCause

	// Receiver.
	rcvNxt int64
	rcvMax int64 // one past the highest sequence ever received
	// ooo holds sequences received above rcvNxt; empty until the first
	// out-of-order arrival, which an in-order flow never has.
	ooo oooWindow
}

// The packet handlers are one pointer each, so a packet's Deliver holds
// one without an allocation and subflow need not store them.
type dataHandler struct{ sf *subflow }

func (h dataHandler) HandlePacket(p *sim.Packet) { h.sf.onData(p) }

type ackHandler struct{ sf *subflow }

func (h ackHandler) HandlePacket(p *sim.Packet) { h.sf.onAck(p) }

func (sf *subflow) inflight() int64 { return sf.sndNxt - sf.sndUna }

// trySend transmits as long as the window allows: first any rewound
// sequence range (after a timeout), then fresh packets drawn from the
// flow's unassigned pool.
func (sf *subflow) trySend() {
	for float64(sf.inflight()) < sf.cwnd {
		fresh := false
		switch {
		case sf.sndNxt < sf.sndMax: // go-back-N retransmission
			sf.f.Retransmits++
		case sf.f.assigned < sf.f.SizePkts: // fresh data
			sf.f.assigned++
			sf.sndMax++
			fresh = true
		default:
			return
		}
		sf.transmit(sf.sndNxt, fresh)
		sf.sndNxt++
	}
}

// transmit sends one packet. fresh guards Karn's rule: only
// first-transmission packets may be timed for RTT estimation.
func (sf *subflow) transmit(seq int64, fresh bool) {
	net := sf.f.net
	p := net.NewPacket()
	p.Size = sf.f.cfg.MTU
	p.Route = sf.fwd
	p.Deliver = dataHandler{sf}
	p.Seq = seq
	p.FlowID = sf.f.ID
	if sf.f.spanOn {
		p.AttachSpan(net.NewSpan(sf.spanCause, net.Eng.Now()))
	}
	net.Send(p)
	if fresh && !sf.timing {
		sf.timing = true
		sf.timedSeq = seq
		sf.timedAt = net.Eng.Now()
	}
	sf.armRTO()
}

func (sf *subflow) rto() sim.Time {
	if sf.srtt == 0 {
		return rtoMin
	}
	rto := sf.srtt + 4*sf.rttvar
	if rto < rtoMin {
		rto = rtoMin
	}
	return rto
}

func (sf *subflow) armRTO() {
	eng := sf.f.net.Eng
	sf.rtoDeadline = eng.Now() + (sf.rto() << sf.backoff)
	if sf.rtoEv == nil || !sf.rtoEv.Pending() {
		sf.rtoEv = eng.At(sf.rtoDeadline, sf.rtoWake)
	}
}

// rtoWake fires at a (possibly stale) deadline; if the deadline has since
// moved, it re-schedules itself instead of acting.
func (sf *subflow) rtoWake() {
	if sf.f.done || sf.sndUna >= sf.sndMax {
		return // idle; next transmission re-arms
	}
	eng := sf.f.net.Eng
	if eng.Now() < sf.rtoDeadline {
		sf.rtoEv = eng.At(sf.rtoDeadline, sf.rtoWake)
		return
	}
	sf.onRTO()
}

func (sf *subflow) onRTO() {
	sf.ssthresh = math.Max(sf.cwnd/2, 2)
	sf.cwnd = 1
	sf.sndNxt = sf.sndUna
	sf.dupacks = 0
	sf.inRecovery = false
	sf.timing = false
	sf.consecRTOs++
	sf.spanCause = sim.CauseRTO
	if sf.maybeRepath() {
		// A fresh path deserves a fresh timeout: keep backing off only
		// while stuck on the same (possibly dead) route.
		sf.backoff = 0
		sf.spanCause = sim.CauseRepath
	} else if sf.backoff < 6 {
		sf.backoff++
	}
	sf.trySend()
}

// maybeRepath asks the flow's Repath hook for a replacement path once
// the consecutive-timeout budget is spent. The subflow's sequence space
// and receiver state survive the swap; only the route (and the now
// meaningless RTT estimate) change.
func (sf *subflow) maybeRepath() bool {
	f := sf.f
	if f.cfg.StallRTOs <= 0 || sf.consecRTOs < f.cfg.StallRTOs || f.Repath == nil {
		return false
	}
	// Spend the budget either way; a fruitless query waits another
	// StallRTOs timeouts before asking again.
	sf.consecRTOs = 0
	path, ok := f.Repath(f, sf.idx)
	if !ok || len(path.Links) == 0 || samePath(path.Links, sf.fwd) {
		return false
	}
	g := f.net.G
	if path.Src(g) != g.Link(sf.fwd[0]).Src || path.Dst(g) != g.Link(sf.fwd[len(sf.fwd)-1]).Dst {
		return false // replacement must connect the same endpoints
	}
	rev, ok := graph.ReversePath(g, path)
	if !ok {
		return false
	}
	sf.fwd = path.Links
	sf.rev = rev.Links
	sf.srtt, sf.rttvar = 0, 0
	f.Repaths++
	if f.OnRepath != nil {
		f.OnRepath(f, sf.idx, path)
	}
	return true
}

func samePath(a, b []graph.LinkID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// oooWindow is a receiver's out-of-order set: a bitmap of 64-sequence
// words, word w at words[w&(len-1)] with len a power of two. Every set bit
// is above rcvNxt and its word lies in [rcvNxt>>6, rcvNxt>>6+len), so a
// word that slides out at the bottom as rcvNxt advances is already clear
// when it comes back in at the top. words stays nil until the first
// out-of-order arrival. It keeps no count of set bits: testing the one
// word costs no more, and a one-path flow stays in its 512-byte block.
type oooWindow struct {
	words []uint64
}

// oooInitWords is the first window: 256 sequences.
const oooInitWords = 4

// has reports whether seq is held. Nothing below rcvNxt is.
func (o *oooWindow) has(seq, rcvNxt int64) bool {
	w := seq >> 6
	if uint64(w-rcvNxt>>6) >= uint64(len(o.words)) {
		return false
	}
	return o.words[w&int64(len(o.words)-1)]&(1<<(seq&63)) != 0
}

// add holds seq, which is above rcvNxt and not held yet, doubling the
// window until seq's word fits in it.
func (o *oooWindow) add(seq, rcvNxt int64) {
	base := rcvNxt >> 6
	if need := seq>>6 - base + 1; need > int64(len(o.words)) {
		size := max(2*len(o.words), oooInitWords)
		for int64(size) < need {
			size *= 2
		}
		words := make([]uint64, size)
		for w := base; w < base+int64(len(o.words)); w++ {
			words[w&int64(size-1)] = o.words[w&int64(len(o.words)-1)]
		}
		o.words = words
	}
	o.words[(seq>>6)&int64(len(o.words)-1)] |= 1 << (seq & 63)
}

// take clears rcvNxt's bit, if set, and reports whether it was.
func (o *oooWindow) take(rcvNxt int64) bool {
	if len(o.words) == 0 {
		return false
	}
	i, bit := (rcvNxt>>6)&int64(len(o.words)-1), uint64(1)<<(rcvNxt&63)
	if o.words[i]&bit == 0 {
		return false
	}
	o.words[i] &^= bit
	return true
}

// onData runs at the receiver.
func (sf *subflow) onData(p *sim.Packet) {
	seq := p.Seq
	ce := p.CE
	// The data packet's span continues onto its ACK: delivery, ACK send,
	// and ACK enqueue all happen at this instant, so the combined journey
	// stays contiguous from the original send to the ACK's arrival.
	span := p.TakeSpan()
	sf.f.net.Release(p)
	if seq+1 > sf.rcvMax {
		sf.rcvMax = seq + 1
	}
	newData := false
	switch {
	case seq == sf.rcvNxt:
		sf.rcvNxt++
		newData = true
		for sf.ooo.take(sf.rcvNxt) {
			sf.rcvNxt++
		}
	case seq > sf.rcvNxt:
		if !sf.ooo.has(seq, sf.rcvNxt) {
			sf.ooo.add(seq, sf.rcvNxt)
			newData = true
		}
	}
	if newData {
		sf.f.rcvd++
		if sf.f.rcvd == sf.f.SizePkts && sf.f.OnDelivered != nil {
			sf.f.OnDelivered(sf.f)
		}
	}
	ack := sf.f.net.NewPacket()
	ack.Size = ackSize
	ack.Route = sf.rev
	ack.Deliver = ackHandler{sf}
	ack.AckSeq = sf.rcvNxt
	ack.FlowID = sf.f.ID
	ack.ECE = ce // echo the CE mark (per-packet, as DCTCP requires)
	if span != nil {
		ack.AttachSpan(span)
	}
	sf.f.net.Send(ack)
}

// onAck runs at the sender.
func (sf *subflow) onAck(p *sim.Packet) {
	ackSeq := p.AckSeq
	ece := p.ECE
	span := p.TakeSpan()
	sf.f.net.Release(p)
	if sf.f.done {
		sf.f.net.FreeSpan(span)
		return
	}
	if sf.f.cfg.DCTCP {
		sf.dctcpOnAck(ackSeq, ece)
	}
	switch {
	case ackSeq > sf.sndUna:
		// Progress: charge [lastProgress, now] to the journey of the
		// packet this ACK answers, *before* checkComplete — at completion
		// lastProgress has reached Finished, so the per-component totals
		// sum to the FCT exactly.
		sf.spanCause = sim.CauseFresh
		if sf.f.spanOn {
			now := sf.f.net.Eng.Now()
			sf.f.attrib.Attribute(span, sf.f.lastProgress, now)
			sf.f.lastProgress = now
		}
		newly := ackSeq - sf.sndUna
		sf.sndUna = ackSeq
		if sf.sndNxt < sf.sndUna {
			sf.sndNxt = sf.sndUna
		}
		sf.backoff = 0
		sf.consecRTOs = 0
		if sf.timing && ackSeq > sf.timedSeq {
			sf.sampleRTT(sf.f.net.Eng.Now() - sf.timedAt)
			sf.timing = false
		}
		if sf.inRecovery {
			if ackSeq >= sf.recover { // full ack: leave recovery
				sf.inRecovery = false
				sf.cwnd = sf.ssthresh
				sf.dupacks = 0
			} else { // partial ack: the next hole is lost too
				sf.repairHole()
				sf.cwnd = math.Max(sf.cwnd-float64(newly)+1, 1)
			}
		} else {
			sf.dupacks = 0
			for i := int64(0); i < newly; i++ {
				sf.increaseCwnd()
			}
		}
		if sf.sndUna < sf.sndMax {
			sf.armRTO()
		} else if sf.rtoEv != nil {
			sf.rtoEv.Cancel()
		}
		sf.f.checkComplete()
		if !sf.f.done {
			sf.trySend()
		}
	case ackSeq == sf.sndUna && sf.sndUna < sf.sndMax:
		sf.dupacks++
		if !sf.inRecovery && sf.dupacks == sf.f.cfg.DupAckThresh {
			sf.inRecovery = true
			sf.recover = sf.sndMax
			sf.holeCursor = sf.sndUna
			sf.ssthresh = math.Max(sf.cwnd/2, 2)
			sf.cwnd = sf.ssthresh + float64(sf.f.cfg.DupAckThresh)
			sf.repairHole()
		} else if sf.inRecovery {
			sf.cwnd++ // window inflation per extra dupack
			if !sf.f.cfg.NoSACK {
				// Each returning ACK clocks out one more hole repair.
				sf.repairHole()
			}
			sf.trySend()
		}
	}
	sf.f.net.FreeSpan(span)
}

// repairHole retransmits the next lost packet. With SACK (the default),
// the sender walks forward from the cumulative ack, skipping sequences
// the receiver already holds out of order — repairing one hole per
// returning ACK, as a SACK scoreboard would. Without SACK it can only
// resend the first unacked packet (NewReno).
func (sf *subflow) repairHole() {
	if sf.f.cfg.NoSACK {
		sf.f.Retransmits++
		sf.transmit(sf.sndUna, false)
		return
	}
	if sf.holeCursor < sf.sndUna {
		sf.holeCursor = sf.sndUna
	}
	// Only sequences below the receiver's highest arrival are provably
	// lost: each subflow's path is FIFO, so a missing sequence with a
	// later arrival above it cannot still be in flight.
	limit := sf.recover
	if sf.rcvMax < limit {
		limit = sf.rcvMax
	}
	for sf.holeCursor < limit {
		seq := sf.holeCursor
		sf.holeCursor++
		if seq < sf.rcvNxt {
			continue // already received in order
		}
		if sf.ooo.has(seq, sf.rcvNxt) {
			continue // received out of order; no repair needed
		}
		sf.f.Retransmits++
		sf.transmit(seq, false)
		return
	}
}

// dctcpOnAck runs DCTCP's per-window marking estimator: count acks and
// echoes, and once per window of data update α and (if the window saw any
// marks) scale cwnd by 1−α/2.
func (sf *subflow) dctcpOnAck(ackSeq int64, ece bool) {
	sf.ackedInWin++
	if ece {
		sf.markedInWin++
	}
	if ackSeq <= sf.winEnd {
		return
	}
	g := dctcpGain
	frac := float64(sf.markedInWin) / float64(sf.ackedInWin)
	sf.dctcpAlpha = (1-g)*sf.dctcpAlpha + g*frac
	if sf.markedInWin > 0 {
		sf.cwnd = math.Max(sf.cwnd*(1-sf.dctcpAlpha/2), 1)
		// A congestion signal ends slow start.
		if sf.ssthresh > sf.cwnd {
			sf.ssthresh = sf.cwnd
		}
	}
	sf.ackedInWin, sf.markedInWin = 0, 0
	sf.winEnd = sf.sndNxt
}

func (sf *subflow) sampleRTT(s sim.Time) {
	if sf.srtt == 0 {
		sf.srtt = s
		sf.rttvar = s / 2
		return
	}
	d := sf.srtt - s
	if d < 0 {
		d = -d
	}
	sf.rttvar = (3*sf.rttvar + d) / 4
	sf.srtt = (7*sf.srtt + s) / 8
}

// increaseCwnd applies one ACK's worth of growth: slow start doubles per
// RTT; congestion avoidance follows NewReno (uncoupled) or LIA (coupled,
// the MPTCP default).
func (sf *subflow) increaseCwnd() {
	if sf.cwnd < sf.ssthresh {
		sf.cwnd++
		return
	}
	if sf.f.cfg.Uncoupled || len(sf.f.subs) == 1 {
		sf.cwnd += 1 / sf.cwnd
		return
	}
	alpha := sf.f.liaAlpha()
	inc := math.Min(alpha/sf.f.totalCwnd(), 1/sf.cwnd)
	sf.cwnd += inc
}
