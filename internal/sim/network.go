package sim

import (
	"fmt"
	"math"
	"slices"

	"pnet/internal/graph"
)

// Handler consumes a packet that has reached the end of its route.
type Handler interface {
	HandlePacket(*Packet)
}

// Packet is a source-routed simulated packet. The transport layer fills
// the Seq/Ack fields; the simulator only reads Size, Route, Hop, and
// Deliver.
type Packet struct {
	// Size is the on-wire size in bytes.
	Size int32
	// Route is the full sequence of directed links host-to-host.
	Route []graph.LinkID
	// Hop indexes the link currently being traversed.
	Hop int32
	// Deliver receives the packet at the final node.
	Deliver Handler

	// Transport fields (opaque to the simulator).
	Seq    int64 // data sequence, in packets
	AckSeq int64 // cumulative ack, in packets
	Aux    int64 // transport scratch (e.g. echoed timestamp)
	// FlowID identifies the transport flow the packet belongs to, for
	// tracing; transports stamp it, the simulator only carries it.
	FlowID int64
	// CE is the ECN congestion-experienced codepoint, set by a queue
	// whose occupancy exceeds the marking threshold; ECE echoes it back
	// to the sender on ACKs (set by the transport).
	CE, ECE bool
	// Trimmed marks a packet whose payload was cut to the header by an
	// overflowing queue (NDP-style trimming) — the receiver learns of
	// the loss immediately instead of inferring it from a timeout.
	Trimmed bool

	net *Network
	// next links the packet into whichever one list holds it: the
	// network's freelist, or the queue it waits in (head to tail). A
	// packet in a lane or with a transport is on neither.
	next *Packet
	// span, when non-nil, is the packet's latency-attribution timeline
	// (see span.go); queues record segments into it as the packet moves.
	span *SpanLog
}

// act delivers the packet at the node it has propagated to; packets are
// scheduled as actor events to keep per-hop allocations at zero.
func (p *Packet) act() { p.net.arrive(p) }

// Config sets network-wide parameters.
type Config struct {
	// QueueBytes is each link queue's drop-tail capacity. Zero selects
	// 100 full-size packets (150 kB), a common htsim configuration.
	QueueBytes int32
	// PropDelay is the per-link propagation delay. Zero selects 1 µs —
	// the paper's assumption of ~200 m of fiber per switch hop (§5.2.1),
	// which makes propagation dominate serialization for small packets.
	PropDelay Time
	// ECNThresholdBytes enables ECN marking: a packet entering a queue
	// whose occupancy exceeds the threshold is marked CE, as in DCTCP's
	// instantaneous-queue marking. Zero disables marking.
	ECNThresholdBytes int32
	// TrimToBytes enables NDP-style packet trimming: instead of dropping
	// a packet that overflows a queue, the queue cuts it to this header
	// size and forwards it (if even the header does not fit, the packet
	// drops). Zero disables trimming. NDP additionally gives trimmed
	// headers priority; this model keeps FIFO order, a documented
	// simplification.
	TrimToBytes int32
}

func (c Config) queueBytes() int32 {
	if c.QueueBytes == 0 {
		return 100 * 1500
	}
	return c.QueueBytes
}

func (c Config) propDelay() Time {
	if c.PropDelay == 0 {
		return Microsecond
	}
	return c.PropDelay
}

// TraceEvent identifies a packet lifecycle point for a Tracer.
type TraceEvent int

// Trace event kinds.
const (
	TraceEnqueue   TraceEvent = iota // packet accepted by a queue
	TraceDrop                        // packet lost to a full queue
	TraceTrim                        // packet payload trimmed (NDP)
	TraceDeliver                     // packet handed to its Deliver handler
	TraceBlackhole                   // packet lost to a down link (runtime fault)
)

// String names the event kind for logs and traces.
func (e TraceEvent) String() string {
	switch e {
	case TraceEnqueue:
		return "enqueue"
	case TraceDrop:
		return "drop"
	case TraceTrim:
		return "trim"
	case TraceDeliver:
		return "deliver"
	case TraceBlackhole:
		return "blackhole"
	}
	return "unknown"
}

// Tracer observes packet events, htsim-log style. Tracing is optional;
// a nil tracer costs one branch per event.
type Tracer interface {
	PacketEvent(ev TraceEvent, p *Packet, link graph.LinkID)
}

// Network instantiates queues for every link of a graph and forwards
// source-routed packets between them.
//
// It also keeps the list of links whose sampled counters (TxBytes, Busy,
// Drops, Blackholed) have moved, so that whoever samples it visits those
// and not every link (MovedLinks, SettleMoved). The list has one
// consumer, the network's sampler (obs.Sampler); with none it fills once,
// at most one entry per link, and costs the packet path a flag test.
type Network struct {
	Eng    *Engine
	G      *graph.Graph
	queues []queue
	free   *Packet
	moved  []graph.LinkID // links with queue.moved set; cap NumLinks, never grows

	// Span (latency attribution) state: a pool of SpanLogs and the
	// enable flag transports consult once per flow. See span.go.
	spansOn   bool
	freeSpans *SpanLog

	// Drops counts packets lost to full queues, by link.
	Drops []int64
	// Blackholed counts packets lost to administratively-down links, by
	// link — the signature of a runtime fault, kept separate from
	// congestion drops so fault experiments can tell the two apart.
	Blackholed []int64

	// Tracer, when set, observes every packet event.
	Tracer Tracer
}

// NewNetwork builds a Network over g. Link rates come from the graph's
// capacities (Gb/s).
func NewNetwork(eng *Engine, g *graph.Graph, cfg Config) *Network {
	n := &Network{
		Eng:        eng,
		G:          g,
		queues:     make([]queue, g.NumLinks()),
		moved:      make([]graph.LinkID, 0, g.NumLinks()),
		Drops:      make([]int64, g.NumLinks()),
		Blackholed: make([]int64, g.NumLinks()),
	}
	for i := range n.queues {
		l := g.Link(graph.LinkID(i))
		if l.Capacity <= 0 {
			panic(fmt.Sprintf("sim: link %d has capacity %v", i, l.Capacity))
		}
		n.queues[i] = queue{
			net:      n,
			id:       graph.LinkID(i),
			plane:    l.Plane,
			psPerBit: 1000 / l.Capacity, // ps per bit at `Capacity` Gb/s
			prop:     cfg.propDelay(),
			capBytes: cfg.queueBytes(),
			ecnMark:  cfg.ECNThresholdBytes,
			trimTo:   cfg.TrimToBytes,
		}
	}
	return n
}

// LinkStats are the per-link monitoring counters (§7 of the paper notes
// that multi-dataplane monitoring must merge per-plane statistics; these
// counters are the raw material).
type LinkStats struct {
	TxPackets int64
	TxBytes   int64
	Drops     int64
	Marks     int64 // ECN CE marks applied
	Trims     int64 // NDP payload trims applied
	// Blackholed counts packets lost because the link was down.
	Blackholed int64
	// Busy is cumulative transmission time; Busy/elapsed is utilization.
	Busy Time
}

// Stats returns a link's counters.
func (n *Network) Stats(id graph.LinkID) LinkStats {
	q := &n.queues[id]
	return LinkStats{
		TxPackets:  q.txPkts,
		TxBytes:    q.txBytes,
		Drops:      n.Drops[id],
		Marks:      q.marks,
		Trims:      q.trims,
		Blackholed: n.Blackholed[id],
		Busy:       q.busyTime,
	}
}

// MovedLinks returns, in link order, the links a transmission start, a
// drop or a blackhole has touched since SettleMoved last let them go,
// and the ones it kept. The slice is the network's own, good until the
// next packet event.
func (n *Network) MovedLinks() []graph.LinkID {
	slices.Sort(n.moved)
	return n.moved
}

// SettleMoved ends a sampling pass: a link whose queue is empty leaves
// the list until it is touched again. One that still holds bytes stays,
// because it can be worth a sample with no counter moving: a
// transmission longer than the sampling interval, or a downed queue
// holding its head until act reaps it.
func (n *Network) SettleMoved() {
	keep := n.moved[:0]
	for _, id := range n.moved {
		if q := &n.queues[id]; q.bytes > 0 {
			keep = append(keep, id)
		} else {
			q.moved = false
		}
	}
	n.moved = keep
}

// SetLinkUp changes a link's runtime state. Taking a link down blackholes
// its queued packets (except one already mid-transmission, which dies
// when its last bit would have left) and every later arrival until the
// link comes back up. Packets already propagating toward the far node
// are considered past the cut and still arrive — the fault takes effect
// at the queue, as a failed transceiver or cut cable would.
//
// This is the dataplane's physical truth; it is deliberately separate
// from graph.Link.Up, the end host's administrative view, so that hosts
// must *detect* faults (core.HealthMonitor) rather than observe them by
// oracle.
func (n *Network) SetLinkUp(id graph.LinkID, up bool) {
	q := &n.queues[id]
	if q.down == !up {
		return
	}
	q.down = !up
	if up {
		return
	}
	// Blackhole everything queued behind the packet in transmission; the
	// head (if any) is reaped by act() when its transmission completes.
	rest := q.head
	q.head, q.tail = nil, nil
	if q.busy {
		q.head, q.tail = rest, rest
		rest = rest.next
		q.head.next = nil
	}
	for rest != nil {
		p := rest
		rest = p.next
		q.bytes -= p.Size
		q.blackhole(p)
	}
}

// LinkUp reports a link's runtime state.
func (n *Network) LinkUp(id graph.LinkID) bool { return !n.queues[id].down }

// TotalBlackholed sums blackholed packets over all links.
func (n *Network) TotalBlackholed() int64 {
	var total int64
	for _, b := range n.Blackholed {
		total += b
	}
	return total
}

// blackhole counts and releases a packet lost to a down link.
func (q *queue) blackhole(p *Packet) {
	n := q.net
	n.Blackholed[q.id]++
	q.touch()
	if n.Tracer != nil {
		n.Tracer.PacketEvent(TraceBlackhole, p, q.id)
	}
	n.Release(p)
}

// NewPacket returns a zeroed packet from the freelist.
func (n *Network) NewPacket() *Packet {
	if p := n.free; p != nil {
		n.free = p.next
		*p = Packet{net: n}
		return p
	}
	return &Packet{net: n}
}

// Release returns a delivered or dropped packet to the freelist. Callers
// must not retain the packet afterwards. A span the transport did not
// claim (drops, blackholes, packets released without TakeSpan) is
// returned to the span pool here.
func (n *Network) Release(p *Packet) {
	if p.span != nil {
		n.FreeSpan(p.span)
		p.span = nil
	}
	p.next = n.free
	n.free = p
}

// Send injects a packet at the head of its route. The packet must have a
// non-empty Route, Hop 0, and a Deliver handler.
func (n *Network) Send(p *Packet) {
	if len(p.Route) == 0 || p.Deliver == nil {
		panic("sim: packet without route or handler")
	}
	p.Hop = 0
	n.queues[p.Route[0]].enqueue(p)
}

// QueueDepth reports the current occupancy, in bytes, of a link's queue
// (including the packet in transmission).
func (n *Network) QueueDepth(id graph.LinkID) int32 { return n.queues[id].bytes }

// TotalDrops sums packet drops over all links.
func (n *Network) TotalDrops() int64 {
	var total int64
	for _, d := range n.Drops {
		total += d
	}
	return total
}

// arrive is called when a packet reaches the node at the end of link
// Route[Hop]: it either forwards to the next queue or delivers.
func (n *Network) arrive(p *Packet) {
	if int(p.Hop) == len(p.Route)-1 {
		if n.Tracer != nil {
			n.Tracer.PacketEvent(TraceDeliver, p, p.Route[p.Hop])
		}
		p.Deliver.HandlePacket(p)
		return
	}
	p.Hop++
	n.queues[p.Route[p.Hop]].enqueue(p)
}

// queue is a drop-tail FIFO output queue feeding one directed link.
type queue struct {
	net      *Network
	id       graph.LinkID
	plane    int32
	psPerBit float64
	prop     Time
	capBytes int32
	ecnMark  int32 // CE-mark threshold in bytes; 0 disables
	trimTo   int32 // trim-to-header size in bytes; 0 disables

	// head and tail bound the FIFO, linked through Packet.next; head is
	// in transmission when busy.
	head, tail *Packet
	bytes      int32
	busy       bool
	down       bool // runtime fault state; a down queue blackholes packets
	moved      bool // on net.moved

	// txSize and txDur memoise txTime's last call.
	txSize int32
	txDur  Time

	txPkts, txBytes int64
	marks           int64
	trims           int64
	busyTime        Time
}

// touch is called wherever a sampled counter moves: the first time since
// the queue was last let go it puts it on its network's moved list.
func (q *queue) touch() {
	if !q.moved {
		q.markMoved()
	}
}

// markMoved is touch's slow path, kept out of line: with the append
// inlined into startTx the hooks-off packet path measured slower
// (DESIGN.md §9.2).
//
//go:noinline
func (q *queue) markMoved() {
	q.moved = true
	q.net.moved = append(q.net.moved, q.id)
}

// txTime is size's serialization time on the link. A queue sees about
// three sizes (MTU, ACK, trimmed header), so the last result is kept: it
// is the same expression's value, exact, and the zero memo is right for
// size 0.
func (q *queue) txTime(size int32) Time {
	if size != q.txSize {
		q.txSize, q.txDur = size, Time(math.Round(float64(size)*8*q.psPerBit))
	}
	return q.txDur
}

func (q *queue) enqueue(p *Packet) {
	if q.down {
		q.blackhole(p)
		return
	}
	// With trimming enabled, headers and control packets (Size <=
	// trimTo) may use a reserved headroom of 64 headers beyond the data
	// budget — modelling NDP's separate high-priority header queue.
	limit := q.capBytes
	if q.trimTo > 0 && p.Size <= q.trimTo {
		limit += 64 * q.trimTo
	}
	if q.bytes+p.Size > limit {
		if q.trimTo > 0 && p.Size > q.trimTo && q.bytes+q.trimTo <= q.capBytes+64*q.trimTo {
			p.Size = q.trimTo
			p.Trimmed = true
			q.trims++
			if q.net.Tracer != nil {
				q.net.Tracer.PacketEvent(TraceTrim, p, q.id)
			}
		} else {
			q.net.Drops[q.id]++
			q.touch()
			if q.net.Tracer != nil {
				q.net.Tracer.PacketEvent(TraceDrop, p, q.id)
			}
			q.net.Release(p)
			return
		}
	}
	if q.ecnMark > 0 && q.bytes > q.ecnMark {
		p.CE = true
		q.marks++
	}
	if q.net.Tracer != nil {
		q.net.Tracer.PacketEvent(TraceEnqueue, p, q.id)
	}
	if p.span != nil {
		p.span.wait = q.net.Eng.Now()
	}
	if q.tail == nil {
		q.head = p
	} else {
		q.tail.next = p
	}
	q.tail = p
	q.bytes += p.Size
	if !q.busy {
		q.busy = true
		q.startTx()
	}
}

func (q *queue) startTx() {
	p := q.head
	eng := q.net.Eng
	tx := q.txTime(p.Size)
	q.busyTime += tx
	q.txPkts++
	q.txBytes += int64(p.Size)
	q.touch()
	if p.span != nil {
		// The hop's full cost is known here: queueing wait since enqueue,
		// then tx, then propagation. Recording prop now is safe — if the
		// link dies mid-flight the packet is blackholed and its span
		// discarded with it, never attributed.
		p.span.hop(q.plane, eng.Now()-p.span.wait, tx, q.prop)
	}
	eng.scheduleAfter(tx, q)
}

// act fires when the head packet's last bit leaves the queue: the packet
// is scheduled to arrive after the propagation delay and the next packet
// (if any) begins transmission.
func (q *queue) act() {
	if q.down {
		// The head's last bit "left" into a dead link; it (and anything
		// else still buffered) is lost.
		for p := q.head; p != nil; {
			next := p.next
			q.blackhole(p)
			p = next
		}
		q.head, q.tail = nil, nil
		q.bytes = 0
		q.busy = false
		return
	}
	p := q.head
	q.head = p.next
	if q.head == nil {
		q.tail = nil
	}
	p.next = nil
	q.bytes -= p.Size

	q.net.Eng.scheduleAfter(q.prop, p)

	if q.head != nil {
		q.startTx()
	} else {
		q.busy = false
	}
}
