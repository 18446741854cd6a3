package sim

// Plane-sharded conservative PDES (ROADMAP item 1): a ShardSet splits one
// logical simulation across several Engines — engines[0..H-1] are *host
// sub-shards* (transport code: delivers, timers, and the host-side NIC
// queues, partitioned by host; H=1 is the classic single host shard) and
// engines[H..] are *plane shards*, each owning the switch queues of the
// dataplanes mapped to it. Planes are physically disjoint in a P-Net and
// hosts only touch each other through the fabric, so every cross-shard
// event edge — host↔ToR in either direction, between any pair of shards —
// is one full propagation delay long. That delay is the conservative
// lookahead: all shards may fire events with timestamps inside the window
// [T, T+lookahead) concurrently without ever needing an event another
// shard has not yet produced.
//
// Host sub-sharding has one extra constraint: a transport flow couples
// its two endpoints synchronously (zero-delay calls between sender and
// receiver state), so both ends of a flow must share a sub-shard. The
// binding layer in hostbind.go (Network.Colocate) maintains that by
// union-finding host components as flows are created; binding is pure
// placement and never affects event order. fn timers stay on a single
// boundary-serial heap owned by engines[0] regardless of H, preserving
// the serial semantics of transport callbacks.
//
// The determinism contract (PR 4/7) is byte-identical output at any shard
// count, including the order-sensitive global fingerprint chain. The
// mechanism is provisional sequence numbers: during a window each shard
// stamps newly scheduled events with provisional seqs (dense per-shard
// indices above provSeqBase) and logs every fired event plus every
// scheduled child. At the barrier, a k-way merge replays the window's
// fired events in exact serial order — (at, true seq) — folding the
// shared fingerprinter and renumbering children from the set-wide counter
// in the order the serial engine would have assigned them. Three
// invariants make this sound:
//
//  1. A provisional seq sorts after every true seq (provSeqBase = 2^63),
//     and within one shard provisional order equals creation order, which
//     equals the serial engine's relative order for same-shard events —
//     so each shard's in-window fire order matches the serial projection.
//  2. A fired record's provisional seq is resolvable at merge time
//     because its creating (parent) event fired earlier in the same
//     shard's log and has therefore already committed.
//  3. Renumbering preserves heap order (new true seqs are assigned in
//     provisional order and exceed all pre-window seqs), so events left
//     pending in a heap need no re-heapify.
//
// Host-side fn callbacks (RTO wakes, sampler ticks, chaos scripts) can
// touch any state — they are window *boundaries*, kept in a separate
// timer heap and fired one at a time with every shard quiesced and all
// clocks synchronized (StepSerial). Every transport timer in this
// codebase is ≥ 100 µs out, far beyond the ~1 µs lookahead, so timers
// cost serial steps only a few times per simulated RTT.

import (
	"fmt"
	"time"

	"pnet/internal/graph"
)

// provSeqBase is the first provisional sequence number. True seqs count
// up from 1; provisional seqs count up from 2^63, so any provisional seq
// sorts after any true seq at the same timestamp — exactly the serial
// order, since in-window children are scheduled after every pre-window
// event was.
const provSeqBase = uint64(1) << 63

// firedRec is one event fired inside a window: enough to replay the
// fingerprint fold and renumber the children it scheduled.
type firedRec struct {
	at      Time
	seq     uint64 // seq at fire time: true, or provisional (resolved via trueOf)
	childLo int32  // [childLo, childHi) indexes windowLog.children
	childHi int32
	info    eventInfo
}

// mergeHead is a shard's next uncommitted fired record's sort key,
// cached across merge iterations (at < 0 marks an exhausted shard).
type mergeHead struct {
	at  Time
	seq uint64
}

// windowLog is one shard's record of a window: events fired, events
// scheduled (children), and the true seqs assigned to those children at
// the barrier. Buffers are reused across windows.
type windowLog struct {
	fired    []firedRec
	children []*Event   // child i holds provisional seq provSeqBase+i until renumbered
	outbox   [][]*Event // children owned by another shard, by target engine index
	trueOf   []uint64   // trueOf[i] is child i's true seq, filled at commit
}

// engineShard is an Engine's membership in a ShardSet.
type engineShard struct {
	set *ShardSet
	idx int // 0..hostShards-1 = host sub-shards, rest = plane shards

	// fnPark stages fn events scheduled by this host sub-shard inside a
	// window: the shared timer heap cannot be pushed concurrently, so the
	// events wait here (logged as children, so they get true seqs) and the
	// barrier flushes them to engines[0]'s timers once renumbered.
	fnPark []*Event

	wl windowLog
}

// ShardSet couples a host engine with its sub-shard and plane-shard
// engines. Construct with NewShardSet; drive with the window protocol in
// internal/pdes.
type ShardSet struct {
	engines    []*Engine // engines[0..hostShards-1] host sub-shards, rest plane shards
	net        *Network
	look       Time
	hostShards int
	place      *Placement // nil = round-robin hosts, plane mod shards
	seq        uint64     // shared true-seq counter, continues the host engine's

	windowOpen  bool
	windowLimit Time

	mergeIdx   []int       // k-way merge scratch
	mergeHeads []mergeHead // cached per-shard merge keys

	// Parallel, when set, fans a function out over one worker per engine
	// (worker i handles engine i) and barriers before returning — the
	// driver's gang, lent to EndWindow so child renumbering and outbox
	// flushing can run in parallel on large windows. Nil commits serially.
	Parallel func(fn func(worker int))
}

// parallelCommitMin is the window child count below which EndWindow
// commits serially even when Parallel is available: a gang dispatch
// costs more than patching a few hundred pointers.
const parallelCommitMin = 256

// NewShardSet splits eng (which becomes host sub-shard 0) and net across
// hostShards host sub-shards plus shards plane-shard engines. Plane p's
// switch queues go to engine hostShards + p mod shards; queues whose
// source node is a host (hostSide) go to their host's sub-shard, which is
// what gives every cross-shard edge a full propagation delay of
// lookahead. hostShards is the host-boundary partition width (1 = the
// classic single host shard). lookahead ≤ 0 or > net.PropDelay() selects
// net.PropDelay() — larger values would be unsound, smaller ones only
// shrink the window. Events already scheduled on eng are re-routed to
// their owning shards with their seqs intact.
func NewShardSet(eng *Engine, net *Network, shards, hostShards int, lookahead Time, hostSide func(graph.LinkID) bool) *ShardSet {
	return NewShardSetPlaced(eng, net, shards, hostShards, lookahead, hostSide, nil)
}

// NewShardSetPlaced is NewShardSet with an explicit shard placement: hosts
// and planes listed in place override the default round-robin / plane mod
// shards assignment (see Placement). Placement is pure ownership — it
// never changes committed event order — so output stays byte-identical to
// serial and to every other placement. A placement that names an
// out-of-range shard or splits a colocation group panics.
func NewShardSetPlaced(eng *Engine, net *Network, shards, hostShards int, lookahead Time, hostSide func(graph.LinkID) bool, place *Placement) *ShardSet {
	if eng.shard != nil {
		panic("sim: engine is already part of a ShardSet")
	}
	if shards < 1 {
		panic(fmt.Sprintf("sim: NewShardSet with %d shards", shards))
	}
	if hostShards < 1 {
		panic(fmt.Sprintf("sim: NewShardSet with %d host shards", hostShards))
	}
	if place != nil {
		for h, s := range place.Hosts {
			if s < 0 || s >= hostShards {
				panic(fmt.Sprintf("sim: placement puts host %d on sub-shard %d, outside [0,%d)", h, s, hostShards))
			}
		}
		for p, s := range place.Planes {
			if s < 0 || s >= shards {
				panic(fmt.Sprintf("sim: placement puts plane %d on shard %d, outside [0,%d)", p, s, shards))
			}
		}
	}
	if lookahead <= 0 || lookahead > net.PropDelay() {
		lookahead = net.PropDelay()
	}
	set := &ShardSet{net: net, look: lookahead, hostShards: hostShards, place: place, seq: eng.seq}
	set.engines = make([]*Engine, hostShards+shards)
	set.engines[0] = eng
	eng.shard = &engineShard{set: set, idx: 0}
	for i := 1; i < hostShards+shards; i++ {
		e := &Engine{now: eng.now, Fingerprint: eng.Fingerprint}
		if eng.Recorder != nil {
			e.Recorder = NewFlightRecorder()
		}
		e.shard = &engineShard{set: set, idx: i}
		set.engines[i] = e
	}
	for _, e := range set.engines {
		e.shard.wl.outbox = make([][]*Event, len(set.engines))
	}
	set.mergeIdx = make([]int, len(set.engines))
	set.mergeHeads = make([]mergeHead, len(set.engines))
	net.bindShards(set, hostSide)

	// Re-home the actor events scheduled before sharding (early packets:
	// tx-completes on the heap, arrivals on the lane, which shard members
	// never use) onto their owners' heaps. Seqs are already true and
	// preserved, and keys are unique, so push order is immaterial. fn
	// events (sampler ticks, chaos scripts, armed RTOs) stay where they
	// are: eng.timers is the set's boundary timer heap from here on.
	pending, lane := eng.events, eng.lane
	eng.events, eng.lane = nil, eventRing{}
	for _, ev := range pending {
		set.engineFor(ev.who).events.push(ev)
	}
	for i := 0; i < lane.n; i++ {
		ev := lane.buf[(lane.head+i)&(len(lane.buf)-1)]
		set.engineFor(ev.who).events.push(ev)
	}
	return set
}

// Engines returns the total engine count (host sub-shards + plane shards).
func (s *ShardSet) Engines() int { return len(s.engines) }

// HostShards returns the host sub-shard count H (1 = single host shard).
func (s *ShardSet) HostShards() int { return s.hostShards }

// Host returns host sub-shard 0 (the engine NewShardSet was given; the
// owner of the timer heap and the shared pools).
func (s *ShardSet) Host() *Engine { return s.engines[0] }

// Lookahead returns the effective conservative lookahead.
func (s *ShardSet) Lookahead() Time { return s.look }

// engineFor returns the shard that must fire an actor event: packet
// arrivals run where the *next* queue lives (the arrival enqueues there),
// final-hop arrivals run transport code on the destination host's
// sub-shard, and a queue's tx-complete runs on its owner.
func (s *ShardSet) engineFor(who actor) *Engine {
	switch a := who.(type) {
	case *Packet:
		if int(a.Hop) == len(a.Route)-1 {
			if s.hostShards > 1 {
				if b := s.net.binds[s.net.G.Link(a.Route[a.Hop]).Dst]; b != nil {
					return b.eng
				}
			}
			return s.engines[0]
		}
		return s.net.queues[a.Route[a.Hop+1]].eng
	case *queue:
		return a.eng
	}
	return s.engines[0]
}

// route places a newly scheduled actor event. Inside a window the firing
// shard logs it as a child under a provisional seq — same-shard events
// enter the local heap (they may still fire this window) and occupy their
// children slot; cross-shard events park in the outbox (their timestamps
// are ≥ the window limit by the lookahead argument, so parking them is
// invisible) and leave a nil children slot, so the commit pass touches
// each event exactly once (the outbox patch owns cross-shard seqs).
// Outside a window the shared counter assigns the true seq immediately.
func (sh *engineShard) route(e *Engine, ev *Event) {
	set := sh.set
	tgt := set.engineFor(ev.who)
	if set.windowOpen {
		wl := &sh.wl
		ev.seq = provSeqBase + uint64(len(wl.children))
		if tgt == e {
			wl.children = append(wl.children, ev)
			e.events.push(ev)
		} else {
			wl.children = append(wl.children, nil)
			ti := tgt.shard.idx
			wl.outbox[ti] = append(wl.outbox[ti], ev)
		}
		return
	}
	set.seq++
	ev.seq = set.seq
	tgt.events.push(ev)
}

// routeFn places a newly scheduled fn (timer) event on the boundary
// timer heap (owned by engines[0]). Timers are window boundaries, so one
// landing *inside* the open window would mean shards have already fired
// events the timer was entitled to reorder — impossible while every
// timer delay exceeds the lookahead, and checked here so a violation
// fails loudly instead of diverging silently. In-window, host sub-shards
// cannot push the shared heap concurrently, so the event is staged in
// the sub-shard's fnPark (logged as a child for renumbering) and flushed
// by the barrier; a parked event reads as Pending, so lazy-wakeup timers
// (RTO) behave exactly as on the serial engine.
func (sh *engineShard) routeFn(e *Engine, ev *Event) {
	set := sh.set
	host := set.engines[0]
	if set.windowOpen {
		if sh.idx >= set.hostShards {
			panic("sim: fn event scheduled from a plane shard during an open window")
		}
		if ev.at < set.windowLimit {
			panic(fmt.Sprintf("sim: timer at %v scheduled inside the open window (limit %v); lookahead exceeds the minimum timer delay", ev.at, set.windowLimit))
		}
		wl := &sh.wl
		ev.seq = provSeqBase + uint64(len(wl.children))
		wl.children = append(wl.children, ev)
		sh.fnPark = append(sh.fnPark, ev)
		return
	}
	set.seq++
	ev.seq = set.seq
	host.timers.push(ev)
}

// peek returns the next live event without removing it, discarding
// cancelled entries as they surface.
func (h *eventHeap) peek() *Event {
	for len(*h) > 0 {
		top := (*h)[0]
		if top.canceled {
			h.pop()
			continue
		}
		return top
	}
	return nil
}

// NextTimer reports the timestamp of the next host fn event — the next
// mandatory serial point.
func (s *ShardSet) NextTimer() (Time, bool) {
	if ev := s.engines[0].timers.peek(); ev != nil {
		return ev.at, true
	}
	return 0, false
}

// NextActor reports the earliest pending actor event across all shards.
func (s *ShardSet) NextActor() (Time, bool) {
	var best Time
	ok := false
	for _, e := range s.engines {
		if ev := e.events.peek(); ev != nil && (!ok || ev.at < best) {
			best, ok = ev.at, true
		}
	}
	return best, ok
}

// BusyShards counts shards holding an event before limit — the window's
// parallelism, used to decide whether fanning out is worth a barrier.
func (s *ShardSet) BusyShards(limit Time) int {
	n := 0
	for _, e := range s.engines {
		if ev := e.events.peek(); ev != nil && ev.at < limit {
			n++
		}
	}
	return n
}

// Advance decides the next move for a driver loop running events with
// timestamps ≤ deadline. done means nothing is left before the deadline
// (the caller should AdvanceAll(deadline) and stop). parallel means open
// a window up to limit — every shard may fire its events before limit
// concurrently; the conservative-lookahead argument is that any event one
// shard schedules onto another carries a timestamp ≥ now + propagation
// delay ≥ limit, so no shard can receive work inside the window it is
// already executing. Otherwise the single globally-next event is a timer
// (or the lone runnable event): fire it with StepSerial.
func (s *ShardSet) Advance(deadline Time) (limit Time, parallel, done bool) {
	tT, hasT := s.NextTimer()
	tA, hasA := s.NextActor()
	if (!hasT || tT > deadline) && (!hasA || tA > deadline) {
		return 0, false, true
	}
	// The window may extend past the deadline by design: RunUntil(t)
	// fires events at exactly t, hence the +1.
	limit = deadline + 1
	if hasT && tT < limit {
		limit = tT
	}
	if hasA && tA+s.look < limit {
		limit = tA + s.look
	}
	if hasA && tA < limit {
		return limit, true, false
	}
	return 0, false, false
}

// BeginWindow opens a window: until EndWindow, shards may run
// concurrently (one goroutine per shard at most) and newly scheduled
// events take provisional seqs.
func (s *ShardSet) BeginWindow(limit Time) {
	s.windowOpen = true
	s.windowLimit = limit
}

// RunShard fires shard i's actor events with timestamps before limit.
// Safe to call concurrently for distinct shards inside an open window.
func (s *ShardSet) RunShard(i int, limit Time) int {
	return s.engines[i].runWindow(limit)
}

// runWindow is the in-window event loop: Engine.fire specialized for
// actor events, with the fingerprint fold deferred to the barrier (the
// global chain is order-sensitive and only the merge knows the order)
// and the flight recorder fed locally (bins are commutative).
func (e *Engine) runWindow(limit Time) int {
	wl := &e.shard.wl
	n := 0
	for len(e.events) > 0 {
		top := e.events[0]
		if top.canceled {
			e.events.pop()
			continue
		}
		if top.at >= limit {
			break
		}
		ev := e.events.pop()
		e.now = ev.at
		e.fired++
		who := ev.who
		if who == nil {
			panic("sim: fn event on a shard's actor heap")
		}
		rec := firedRec{at: ev.at, seq: ev.seq, childLo: int32(len(wl.children))}
		ev.who = nil
		ev.next = e.free
		e.free = ev
		rec.info = classify(who)
		if e.Recorder != nil {
			start := time.Now()
			who.act()
			e.Recorder.record(rec.info.kind, rec.info.plane, time.Since(start).Nanoseconds())
		} else {
			who.act()
		}
		rec.childHi = int32(len(wl.children))
		wl.fired = append(wl.fired, rec)
		n++
	}
	return n
}

// EndWindow is the barrier: with all shards quiesced, it replays the
// window's fired events in serial order, folding the shared
// fingerprinter and assigning true seqs to every child in exactly the
// order the serial engine would have, then flushes cross-shard events to
// their heaps and returns freelisted packets to the shared pools.
// Returns the number of events committed.
//
// The protocol is split into an order-sensitive serial pass and a
// parallelizable commit pass:
//
//   - Pass 1 (serial) computes the merge order and fills trueOf — the
//     child-index → true-seq table — and folds the fingerprint chain.
//     When only one shard fired anything, the merge collapses to a
//     linear walk of that shard's log (the single-occupancy fast path:
//     no k-way scan, no head refreshes).
//   - A serial outbox sweep then renumbers cross-shard children (they
//     never fire or recycle inside their creating window, so their seqs
//     are unconditionally provisional).
//   - Pass 2 (commitShard, parallel across engines when the driver lent
//     a gang and the window is large enough) patches same-shard children,
//     routes every outbox into its target heap, and resets the logs.
//     Worker w touches only engines[w]'s heap, children, and trueOf plus
//     each source's outbox[w] — all disjoint, so no synchronization.
func (s *ShardSet) EndWindow() int {
	s.windowOpen = false
	fp := s.engines[0].Fingerprint
	busy, nBusy := -1, 0
	children := 0
	for i, e := range s.engines {
		if len(e.shard.wl.fired) > 0 {
			busy, nBusy = i, nBusy+1
		}
		children += len(e.shard.wl.children)
	}
	total := 0
	if nBusy == 1 {
		// Single-occupancy fast path: this shard's log order IS the
		// serial order (invariant 1), so commit it front to back.
		wl := &s.engines[busy].shard.wl
		for j := range wl.fired {
			fr := &wl.fired[j]
			if len(wl.trueOf) != int(fr.childLo) {
				panic("sim: shard window child ranges out of order")
			}
			for c := fr.childLo; c < fr.childHi; c++ {
				s.seq++
				wl.trueOf = append(wl.trueOf, s.seq)
			}
			if fp != nil {
				fp.fold(fr.at, fr.info)
			}
			total++
		}
	} else if nBusy > 1 {
		// Merge state: one cached (at, true-seq) key per shard with
		// pending records, refreshed only when that shard's head advances.
		// A key resolved through trueOf stays valid across other shards'
		// commits — committed true seqs never change — so each iteration
		// costs a scan of at most K scalar pairs plus one head refresh for
		// the winner.
		idx := s.mergeIdx
		heads := s.mergeHeads
		refresh := func(i int) {
			wl := &s.engines[i].shard.wl
			j := idx[i]
			if j >= len(wl.fired) {
				heads[i].at = -1 // exhausted
				return
			}
			fr := &wl.fired[j]
			ts := fr.seq
			if ts >= provSeqBase {
				// Resolvable: the child's parent fired earlier in this
				// shard's log and has already committed (invariant 2).
				ts = wl.trueOf[ts-provSeqBase]
			}
			heads[i] = mergeHead{at: fr.at, seq: ts}
		}
		for i := range idx {
			idx[i] = 0
			refresh(i)
		}
		for {
			best := -1
			var bestAt Time
			var bestSeq uint64
			for i := range heads {
				h := heads[i]
				if h.at < 0 {
					continue
				}
				if best < 0 || h.at < bestAt || (h.at == bestAt && h.seq < bestSeq) {
					best, bestAt, bestSeq = i, h.at, h.seq
				}
			}
			if best < 0 {
				break
			}
			wl := &s.engines[best].shard.wl
			fr := &wl.fired[idx[best]]
			idx[best]++
			if len(wl.trueOf) != int(fr.childLo) {
				panic("sim: shard window child ranges out of order")
			}
			for c := fr.childLo; c < fr.childHi; c++ {
				s.seq++
				wl.trueOf = append(wl.trueOf, s.seq)
			}
			if fp != nil {
				fp.fold(fr.at, fr.info)
			}
			refresh(best)
			total++
		}
	}
	// Cross-shard children renumber serially before the commit fans out:
	// the commit worker that pushes an outbox event reads its seq, and
	// racing that read against the creating shard's patch would need a
	// guard the serial sweep makes unnecessary.
	for _, e := range s.engines {
		wl := &e.shard.wl
		for _, box := range wl.outbox {
			for _, ev := range box {
				ev.seq = wl.trueOf[ev.seq-provSeqBase]
			}
		}
	}
	if s.Parallel != nil && children >= parallelCommitMin {
		s.Parallel(s.commitShard)
	} else {
		for w := range s.engines {
			s.commitShard(w)
		}
	}
	// Flush fn events the host sub-shards parked during the window; their
	// seqs are true now, so heap order is the serial order (invariant 3).
	host := s.engines[0]
	for i := 0; i < s.hostShards; i++ {
		sh := s.engines[i].shard
		for k, ev := range sh.fnPark {
			host.timers.push(ev)
			sh.fnPark[k] = nil
		}
		sh.fnPark = sh.fnPark[:0]
	}
	s.net.spliceShardPools()
	return total
}

// commitShard is one worker's slice of EndWindow's commit pass: patch
// engine w's same-shard children to their true seqs, drain every
// engine's outbox bound for w into w's heap, and reset w's window log.
// Safe to run concurrently for distinct w — all touched state is either
// owned by engine w or a distinct outbox slot.
func (s *ShardSet) commitShard(w int) {
	wl := &s.engines[w].shard.wl
	for i, ev := range wl.children {
		// A pooled child that already fired this window may have been
		// recycled and reused; only rewrite the Event if it still carries
		// this child's provisional seq (the fired record keeps its own
		// copy either way). Nil slots are cross-shard children, renumbered
		// by the serial outbox sweep.
		if ev != nil && ev.seq == provSeqBase+uint64(i) {
			ev.seq = wl.trueOf[i]
		}
	}
	tgt := s.engines[w]
	for _, e := range s.engines {
		box := e.shard.wl.outbox[w]
		for k, ev := range box {
			tgt.events.push(ev)
			box[k] = nil
		}
		e.shard.wl.outbox[w] = box[:0]
	}
	wl.fired = wl.fired[:0]
	wl.children = wl.children[:0]
	wl.trueOf = wl.trueOf[:0]
}

// StepSerial fires the single globally-next event — timer or actor —
// with every shard's clock advanced to its timestamp first, so host code
// reading any engine's Now() sees the serial engine's value. Returns
// false when no events remain.
func (s *ShardSet) StepSerial() bool {
	var bestE *Engine
	var bestH *eventHeap
	var bestEv *Event
	consider := func(e *Engine, h *eventHeap) {
		ev := h.peek()
		if ev == nil {
			return
		}
		if bestEv == nil || less(ev, bestEv) {
			bestE, bestH, bestEv = e, h, ev
		}
	}
	host := s.engines[0]
	consider(host, &host.timers)
	for _, e := range s.engines {
		consider(e, &e.events)
	}
	if bestEv == nil {
		return false
	}
	ev := bestH.pop()
	s.AdvanceAll(ev.at)
	bestE.fire(ev)
	return true
}

// AdvanceAll moves every shard's clock forward to t (never backward).
func (s *ShardSet) AdvanceAll(t Time) {
	for _, e := range s.engines {
		if e.now < t {
			e.now = t
		}
	}
}

// Quiesce reconciles cross-shard state at a known-quiet point (end of a
// RunUntil segment): shard freelist pools splice back into the shared
// ones (a serial-phase blackhole can park carcasses with no window
// barrier following) and plane flight recorders drain into the host's.
func (s *ShardSet) Quiesce() {
	s.net.spliceShardPools()
	s.DrainRecorders()
}

// DrainRecorders folds the plane shards' flight-recorder bins into the
// host engine's recorder (the one telemetry snapshots), leaving the
// plane recorders empty. Call after a run segment, with shards quiesced.
func (s *ShardSet) DrainRecorders() {
	host := s.engines[0]
	if host.Recorder == nil {
		return
	}
	for _, e := range s.engines[1:] {
		if e.Recorder != nil {
			host.Recorder.MergeFrom(e.Recorder)
		}
	}
}
