package sim

// Latency attribution: every packet can carry a SpanLog, a pooled
// per-journey timeline of (component, plane, duration) segments the
// queues fill in as the packet moves. Transports partition a flow's
// lifetime [Started, Finished] at ACK/arrival progress instants and
// charge each interval to the causing packet's journey, so the
// per-component totals sum to the flow completion time *exactly* (all
// arithmetic is integer picoseconds). Spans are off by default and cost
// one nil check per hot-path hook when disabled; see DESIGN.md §9.

// SpanComponent classifies one slice of a flow's completion time.
type SpanComponent uint8

// Span components. The first three are per-hop network time recorded by
// queues; the last three are sender-side gaps classified by the cause of
// the packet that ended them.
const (
	// SpanQueue is time spent waiting behind other packets in a queue.
	SpanQueue SpanComponent = iota
	// SpanSerialize is transmission (store-and-forward clock-out) time.
	SpanSerialize
	// SpanPropagate is link propagation time.
	SpanPropagate
	// SpanRTOStall is dead time before a retransmission-timeout resend —
	// the flow made no progress because it was waiting for a timer.
	SpanRTOStall
	// SpanRepathGap is dead time before a resend on a *replacement* path
	// (Flow.Repath): the cost of detecting a stalled route and moving.
	SpanRepathGap
	// SpanHostWait is sender-side wait that is not a protocol stall:
	// cwnd/credit pacing between a progress ACK and the next useful send.
	SpanHostWait

	numSpanComponents
)

var spanComponentNames = [numSpanComponents]string{
	"queue", "serialize", "propagate", "rto_stall", "repath_gap", "host_wait",
}

// String names the component as it appears in JSONL records and reports.
func (c SpanComponent) String() string {
	if int(c) < len(spanComponentNames) {
		return spanComponentNames[c]
	}
	return "unknown"
}

// SpanComponentNames lists every valid component name, in enum order.
func SpanComponentNames() []string {
	return append([]string(nil), spanComponentNames[:]...)
}

// ParseSpanComponent resolves a component name; ok is false for names no
// version of this enum ever emitted (the reader's schema check).
func ParseSpanComponent(s string) (SpanComponent, bool) {
	for i, n := range spanComponentNames {
		if n == s {
			return SpanComponent(i), true
		}
	}
	return 0, false
}

// SpanCause records why a packet was sent; it classifies the sender-side
// gap between the previous progress instant and the packet's send time.
type SpanCause uint8

// Span causes.
const (
	// CauseFresh marks a normally-clocked (window/credit) transmission.
	CauseFresh SpanCause = iota
	// CauseRTO marks a transmission triggered by a retransmission timeout.
	CauseRTO
	// CauseRepath marks the first transmission after a stall-driven path
	// swap (Flow.Repath).
	CauseRepath
)

// stall maps a cause to the component its preceding dead time charges.
func (c SpanCause) stall() SpanComponent {
	switch c {
	case CauseRTO:
		return SpanRTOStall
	case CauseRepath:
		return SpanRepathGap
	}
	return SpanHostWait
}

// SpanSeg is one contiguous slice of a packet's journey.
type SpanSeg struct {
	Comp  SpanComponent
	Plane int32
	Dur   Time
}

// SpanLog is one packet's timeline from send to delivery (and, for TCP,
// on through the ACK's return journey — the transport moves the log from
// the data packet to its ACK). Segments are chronological and contiguous:
// their durations sum to now−SentAt at every instant the packet (or its
// ACK) is being processed. Logs are pooled on the Network like packets.
type SpanLog struct {
	// SentAt is the simulated send time.
	SentAt Time
	// Cause is why the packet was sent (fresh, RTO, repath).
	Cause SpanCause

	wait Time // enqueue instant of the hop in progress
	segs []SpanSeg
	next *SpanLog // freelist
}

// hop appends one hop's worth of segments. Zero durations are skipped —
// they carry no time, so sums stay exact without the clutter.
func (s *SpanLog) hop(plane int32, wait, tx, prop Time) {
	if wait > 0 {
		s.segs = append(s.segs, SpanSeg{SpanQueue, plane, wait})
	}
	if tx > 0 {
		s.segs = append(s.segs, SpanSeg{SpanSerialize, plane, tx})
	}
	if prop > 0 {
		s.segs = append(s.segs, SpanSeg{SpanPropagate, plane, prop})
	}
}

// EnableSpans turns span recording on for packets subsequently attached
// a span by their transport. Transports check SpansOn once per flow.
func (n *Network) EnableSpans() { n.spansOn = true }

// SpansOn reports whether span recording is enabled.
func (n *Network) SpansOn() bool { return n.spansOn }

// NewSpan returns a pooled, reset span log stamped with its send time
// and cause.
func (n *Network) NewSpan(cause SpanCause, at Time) *SpanLog {
	s := n.freeSpans
	if s != nil {
		n.freeSpans = s.next
		s.next = nil
		s.segs = s.segs[:0]
	} else {
		s = &SpanLog{}
	}
	s.SentAt = at
	s.Cause = cause
	s.wait = 0
	return s
}

// FreeSpan returns a span log to the pool. Nil is a no-op, so callers
// can free unconditionally on every exit path.
func (n *Network) FreeSpan(s *SpanLog) {
	if s == nil {
		return
	}
	s.next = n.freeSpans
	n.freeSpans = s
}

// AttachSpan hands a span log to a packet; the queues it traverses will
// record segments into it. Release frees an unclaimed span automatically.
func (p *Packet) AttachSpan(s *SpanLog) { p.span = s }

// TakeSpan detaches and returns the packet's span log (nil when spans
// are off). The caller owns it and must FreeSpan it or attach it to
// another packet.
func (p *Packet) TakeSpan() *SpanLog {
	s := p.span
	p.span = nil
	return s
}

// SpanTotal is one (component, plane) cell of a flow's attribution.
// Plane is -1 for components that are not tied to a link (stalls and
// host waits).
type SpanTotal struct {
	Comp  SpanComponent
	Plane int32
	Dur   Time
}

// SpanAttribution accumulates a flow's FCT decomposition. Transports
// call Attribute once per progress interval; the running totals then sum
// to exactly the time attributed so far. The zero value is ready to use.
type SpanAttribution struct {
	totals []SpanTotal
}

func (a *SpanAttribution) add(c SpanComponent, plane int32, d Time) {
	if d <= 0 {
		return
	}
	for i := range a.totals {
		if a.totals[i].Comp == c && a.totals[i].Plane == plane {
			a.totals[i].Dur += d
			return
		}
	}
	a.totals = append(a.totals, SpanTotal{c, plane, d})
}

// Attribute charges the progress interval [from, to] to the journey of
// the packet that produced the progress. The journey (span) is
// contiguous from its send time to `to`, so:
//
//   - if the packet was sent before `from`, the interval is covered by
//     the journey's suffix of length to−from (walked backward, splitting
//     the boundary segment exactly);
//   - if the packet was sent inside the interval, the gap [from, SentAt]
//     is dead time charged to the packet's cause (RTO stall, repath gap,
//     or host wait) and the full journey covers the rest.
//
// Either way the charged durations sum to exactly to−from, which is what
// makes per-flow attribution conservative: summing over all progress
// intervals reproduces the FCT to the picosecond.
func (a *SpanAttribution) Attribute(span *SpanLog, from, to Time) {
	left := to - from
	if left <= 0 {
		return
	}
	if span == nil {
		a.add(SpanHostWait, -1, left)
		return
	}
	if gap := span.SentAt - from; gap > 0 {
		if gap > left {
			gap = left
		}
		a.add(span.Cause.stall(), -1, gap)
		left -= gap
	}
	segs := span.segs
	for i := len(segs) - 1; i >= 0 && left > 0; i-- {
		d := segs[i].Dur
		if d > left {
			d = left
		}
		a.add(segs[i].Comp, segs[i].Plane, d)
		left -= d
	}
	if left > 0 {
		// A journey with missing coverage (cannot happen for queues built
		// by this package); charge the remainder honestly rather than
		// dropping time and breaking conservation.
		a.add(SpanHostWait, -1, left)
	}
}

// Total sums every attributed duration — by construction, the sum of all
// Attribute(…, from, to) interval lengths.
func (a *SpanAttribution) Total() Time {
	var t Time
	for _, c := range a.totals {
		t += c.Dur
	}
	return t
}

// Totals returns the attribution cells sorted by (component, plane), a
// deterministic order independent of accumulation order.
func (a *SpanAttribution) Totals() []SpanTotal {
	out := append([]SpanTotal(nil), a.totals...)
	// Insertion sort: the cell count is tiny (≤ components × planes).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && spanTotalLess(out[j], out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func spanTotalLess(a, b SpanTotal) bool {
	if a.Comp != b.Comp {
		return a.Comp < b.Comp
	}
	return a.Plane < b.Plane
}
