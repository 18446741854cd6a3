package obs

import (
	"slices"
	"time"

	"pnet/internal/graph"
	"pnet/internal/sim"
)

// Sampler periodically reads a network's state from inside the event
// loop and emits it to its sink. It schedules itself on the simulation
// engine, so records carry sim timestamps; when its tick finds the event
// heap otherwise empty the simulation is over and it stops rescheduling,
// which keeps Engine.Run terminating. It retains nothing: a test that
// wants the series attaches a sink that appends to slices.
//
// Each tick emits one engine record (events fired and wall time since
// the previous tick, pending events now), one link record per active
// link (nonzero queue, or traffic/drops since the last tick; idle links
// would dominate the series without carrying information) and one plane
// record per dataplane. A tick visits only the links the network lists
// as moved (sim.Network.MovedLinks: touched since the last tick, or
// still holding bytes), in link order; every other link is idle by
// construction and its baseline below still holds. A tick costs what
// it emits, not the size of the network: incast emits 3.7 link records
// a tick on networks of hundreds of links. A network has one sampler.
//
// To bound overhead on long simulations the sampler decimates itself:
// after every decimateAfter ticks the interval doubles, so the tick
// count grows only logarithmically with simulated time.
type Sampler struct {
	Eng *sim.Engine
	Net *sim.Network

	// NetID distinguishes multiple sampled networks in a shared sink.
	NetID int

	sink Sink

	interval   sim.Time
	ticks      int
	stopped    bool
	prevTx     []int64
	prevDrops  []int64
	prevBH     []int64
	prevBusy   []sim.Time
	prevFired  uint64
	prevWall   time.Time
	planeOrder []int32 // the network's plane ids, ascending
	planeIdx   []int32 // per link: its plane's position in planeOrder
	planeBytes []int64 // per planeOrder position: cumulative TxBytes
}

const decimateAfter = 4096

// NewSampler prepares a sampler emitting to sink at the given interval
// (which must be positive). Call Start to begin sampling.
func NewSampler(eng *sim.Engine, net *sim.Network, interval sim.Time, sink Sink) *Sampler {
	n := net.G.NumLinks()
	s := &Sampler{
		Eng:       eng,
		Net:       net,
		sink:      sink,
		interval:  interval,
		prevTx:    make([]int64, n),
		prevDrops: make([]int64, n),
		prevBH:    make([]int64, n),
		prevBusy:  make([]sim.Time, n),
		planeIdx:  make([]int32, n),
	}
	for i := 0; i < n; i++ {
		s.planeOrder = append(s.planeOrder, net.G.Link(graph.LinkID(i)).Plane)
	}
	slices.Sort(s.planeOrder)
	s.planeOrder = slices.Compact(s.planeOrder)
	for i := range s.planeIdx {
		at, _ := slices.BinarySearch(s.planeOrder, net.G.Link(graph.LinkID(i)).Plane)
		s.planeIdx[i] = int32(at)
	}
	s.planeBytes = make([]int64, len(s.planeOrder))
	return s
}

// Start schedules the first tick one interval from now.
func (s *Sampler) Start() {
	s.prevWall = time.Now()
	s.prevFired = s.Eng.EventsFired()
	s.Eng.After(s.interval, s.tick)
}

// Stop ends sampling. A sampler stopped before its first tick (its
// engine ran for less than one interval) emits its one engine record
// here, so every sampled network appears in the sink and a summary built
// from the stream counts the same networks as one built live. Call it
// only once the engine has stopped.
func (s *Sampler) Stop() {
	if s.stopped {
		return
	}
	s.stopped = true
	if s.ticks == 0 {
		s.sink.Engine(s.engineRecord())
	}
}

// engineRecord reads the engine's progress since the previous record and
// moves the baseline up to now.
func (s *Sampler) engineRecord() EngineRecord {
	wall, fired := time.Now(), s.Eng.EventsFired()
	r := EngineRecord{
		Type: KindEngine, Net: s.NetID, TPs: int64(s.Eng.Now()),
		Events: fired - s.prevFired, HeapLen: s.Eng.HeapLen(),
		WallNano: wall.Sub(s.prevWall).Nanoseconds(),
	}
	s.prevFired = fired
	s.prevWall = wall
	return r
}

func (s *Sampler) tick() {
	if s.stopped {
		return
	}
	now := int64(s.Eng.Now())
	s.sink.Engine(s.engineRecord())

	// Link records, active links only: a link not listed has moved no
	// counter since its baseline was taken and holds no bytes.
	intervalSec := s.interval.Seconds()
	for _, id := range s.Net.MovedLinks() {
		st := s.Net.Stats(id)
		s.planeBytes[s.planeIdx[id]] += st.TxBytes - s.prevTx[id]
		depth := s.Net.QueueDepth(id)
		active := depth > 0 || st.TxBytes != s.prevTx[id] || st.Drops != s.prevDrops[id] || st.Blackholed != s.prevBH[id]
		if active {
			util := 0.0
			if intervalSec > 0 {
				util = (st.Busy - s.prevBusy[id]).Seconds() / intervalSec
			}
			s.sink.Link(LinkRecord{
				Type: KindLink, Net: s.NetID, TPs: now, Link: int64(id), Plane: s.planeOrder[s.planeIdx[id]],
				QueueBytes: depth, Util: util, TxBytes: st.TxBytes, Drops: st.Drops,
				Blackholed: st.Blackholed,
			})
		}
		s.prevTx[id] = st.TxBytes
		s.prevDrops[id] = st.Drops
		s.prevBH[id] = st.Blackholed
		s.prevBusy[id] = st.Busy
	}
	s.Net.SettleMoved()

	// Per-plane totals.
	for i, p := range s.planeOrder {
		s.sink.Plane(PlaneRecord{Type: KindPlane, Net: s.NetID, TPs: now, Plane: p, TxBytes: s.planeBytes[i]})
	}

	s.ticks++
	if s.ticks%decimateAfter == 0 {
		s.interval *= 2
	}
	// Reschedule only while other work remains: an empty heap here means
	// nothing else can ever fire, so the simulation is done.
	if s.Eng.HeapLen() > 0 {
		s.Eng.After(s.interval, s.tick)
	}
}
