package sim

// Determinism fingerprints: a rolling 64-bit hash chain over every event
// the engine fires, folded per dataplane and globally, with a checkpoint
// every epoch (N events). The chain is the determinism contract of
// ROADMAP item 1 made checkable: two runs that fired the same events in
// the same order at the same simulated times carry identical chains, and
// the first divergent epoch can be found by bisection instead of by
// staring at report diffs; at a cadence of one event per epoch that is the
// first divergent event. Attach one per engine (Engine.Fingerprint); a nil
// fingerprinter costs one branch per event, same as the flight recorder.
// A non-nil one costs every event five mix64 rounds, which is the chain's
// definition, and a countdown to the next checkpoint; nothing divides.
//
// The chain deliberately hashes only simulated quantities — timestamp,
// event kind, plane, link, flow, sequence, size — never wall time or
// heap addresses, so it is invariant across worker counts, machines, and
// runs of the same binary. Plane chains fold only that plane's events;
// events with no plane (timers) fold into the host chain. XOR-folding
// final chains across engines is therefore order-free, which is what
// makes the run-level fingerprint worker-count invariant even though
// engines attach in completion order.

// DefaultFingerprintEpoch is the checkpoint cadence when none is given:
// one checkpoint per 65536 events keeps checkpoint streams small (a few
// hundred lines per engine on the paper's small-scale runs). A divergence
// re-run at a cadence of 1 names the exact event instead.
const DefaultFingerprintEpoch = 1 << 16

// mix64 is the splitmix64 finalizer: a cheap, well-dispersed 64-bit
// permutation. Chaining it (h = mix64(h ^ v)) makes the fingerprint
// order-sensitive — swapping two events changes every later value.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// FingerprintCheckpoint is the chain state at one epoch boundary.
type FingerprintCheckpoint struct {
	// Epoch is the 0-based index of the epoch this checkpoint closes.
	Epoch int64
	// Events is the cumulative event count at the checkpoint.
	Events int64
	// T is the simulated time of the last folded event.
	T Time
	// Global, Host, and Planes are the cumulative chains: every event,
	// plane-less (timer) events, and per-plane events respectively.
	Global uint64
	Host   uint64
	Planes []uint64
	// Partial marks a trailing checkpoint taken at the end of a run for an
	// epoch still in progress (Events is not a multiple of the cadence).
	Partial bool
	// Kind, Plane, Link, Flow, Seq and Size identify the event that closed
	// the epoch, as Fold received it; a Partial checkpoint has none.
	Kind  EventKind
	Plane int32
	Link  int64
	Flow  int64
	Seq   int64
	Size  int32
}

// Fingerprinter folds fired events into the hash chains. It belongs to
// exactly one engine (single-threaded, no atomics); run-level folds
// happen in internal/report. It keeps no checkpoint: each is handed to
// OnCheckpoint as its epoch closes. The hot path is allocation-free once
// the plane slice is warm; a checkpoint allocates its copy of the plane
// chains.
type Fingerprinter struct {
	epoch  int64 // events per checkpoint
	left   int64 // events until the next one: a countdown, not events % epoch
	events int64
	global uint64
	host   uint64
	planes []uint64
	lastT  Time

	// OnCheckpoint, when non-nil, receives each epoch's checkpoint inside
	// the Fold that closes it, after that event is folded.
	OnCheckpoint func(FingerprintCheckpoint)
}

// NewFingerprinter returns a fingerprinter checkpointing every
// epochEvents events (<= 0 selects DefaultFingerprintEpoch).
func NewFingerprinter(epochEvents int64) *Fingerprinter {
	if epochEvents <= 0 {
		epochEvents = DefaultFingerprintEpoch
	}
	return &Fingerprinter{epoch: epochEvents, left: epochEvents}
}

// EpochEvents returns the checkpoint cadence.
func (f *Fingerprinter) EpochEvents() int64 { return f.epoch }

// Fold mixes one fired event, described by its simulated identity, into
// the chains: the engine's dispatch path calls it with its
// classification, replay tooling with its own. Plane is -1 for plane-less
// events, link -1 for non-packet events. Only simulated quantities enter
// the hash; see the package comment for why.
func (f *Fingerprinter) Fold(t Time, kind EventKind, plane int32, link, flow, seq int64, size int32) {
	v := mix64(uint64(t) ^ uint64(kind)<<56 ^ uint64(uint32(plane))<<40)
	v = mix64(v ^ uint64(link)<<32 ^ uint64(uint32(size)))
	v = mix64(v ^ uint64(flow)<<16 ^ uint64(seq))
	f.global = mix64(f.global ^ v)
	if plane < 0 {
		f.host = mix64(f.host ^ v)
	} else {
		for int(plane) >= len(f.planes) {
			f.planes = append(f.planes, 0)
		}
		f.planes[plane] = mix64(f.planes[plane] ^ v)
	}
	f.lastT = t
	f.events++
	if f.left--; f.left == 0 {
		f.left = f.epoch
		if f.OnCheckpoint != nil {
			cp := f.checkpoint(false)
			cp.Kind, cp.Plane, cp.Link, cp.Flow, cp.Seq, cp.Size = kind, plane, link, flow, seq, size
			f.OnCheckpoint(cp)
		}
	}
}

func (f *Fingerprinter) checkpoint(partial bool) FingerprintCheckpoint {
	return FingerprintCheckpoint{
		Epoch:   (f.events - 1) / f.epoch,
		Events:  f.events,
		T:       f.lastT,
		Global:  f.global,
		Host:    f.host,
		Planes:  append([]uint64(nil), f.planes...),
		Partial: partial,
	}
}

// Partial returns the trailing checkpoint of the epoch in progress, and
// false when the last folded event closed an epoch (or none was folded):
// a run whose event count is not a multiple of the cadence still ends on
// a comparable record. Call it once the engine has stopped.
func (f *Fingerprinter) Partial() (FingerprintCheckpoint, bool) {
	if f.left == f.epoch {
		return FingerprintCheckpoint{}, false
	}
	return f.checkpoint(true), true
}

// classify extracts an event's identity from its actor: what kind of
// work it is, which plane owns it, and the packet identity (link, flow,
// seq, size; -1/0 when not a packet). It must run before dispatch:
// acting advances or releases the packet it reads. The results are
// scalars so that they travel in registers; as a struct they were
// assembled on the stack with narrow stores and read back with wide
// loads, three failed store-to-load forwards an event (DESIGN.md §9.2).
func classify(who actor) (kind EventKind, plane int32, link, flow, seq int64, size int32) {
	switch a := who.(type) {
	case *Packet:
		l := a.Route[a.Hop]
		kind = EvHop
		if int(a.Hop) == len(a.Route)-1 {
			kind = EvDeliver
		}
		return kind, a.net.queues[l].plane, int64(l), a.FlowID, a.Seq, a.Size
	case *queue:
		return EvTx, a.plane, int64(a.id), 0, 0, 0
	}
	return EvTimer, -1, -1, 0, 0, 0
}
