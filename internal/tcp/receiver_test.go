package tcp

import (
	"math/rand"
	"slices"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/sim"
)

// receiver returns the engine and the one subflow of a flow whose sender
// is inert, so a test can drive the receiver by hand: it calls onData
// directly, the ACKs it sends drain through the engine and are released
// at the finished sender, and whatever repairHole retransmits is
// blackholed by the cut data link.
func receiver(t *testing.T) (*sim.Engine, *subflow) {
	t.Helper()
	eng, net, p := dumbbell(100, sim.Config{})
	f, err := NewFlow(net, Config{}, []graph.Path{p}, 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	f.done = true
	net.SetLinkUp(p.Links[0], false)
	return eng, f.subs[0]
}

// receive hands the receiver data packet seq.
func receive(sf *subflow, seq int64) {
	p := sf.f.net.NewPacket()
	p.Size = mtu
	p.Seq = seq
	sf.onData(p)
}

// reorderedStream returns n sequences in a reordered arrival order with
// duplicates. It runs in segments, each letting a sequence arrive up to
// its own displacement late; the largest displacements open gaps far
// wider than the initial window.
func reorderedStream(rng *rand.Rand, n int) []int64 {
	type arrival struct{ seq, key int64 }
	var arr []arrival
	disp := int64(16) // the first segment stays inside the initial window
	for seq := int64(0); seq < int64(n); seq++ {
		if seq%500 == 0 && seq > 0 {
			disp = []int64{0, 3, 16, 100, 400, 1500}[rng.Intn(6)]
		}
		arr = append(arr, arrival{seq, seq + rng.Int63n(disp+1)})
	}
	slices.SortStableFunc(arr, func(a, b arrival) int { return int(a.key - b.key) })
	out := make([]int64, 0, n+n/8)
	for _, a := range arr {
		out = append(out, a.seq)
		if rng.Intn(8) == 0 { // a duplicate of something already sent
			out = append(out, out[rng.Intn(len(out))])
		}
	}
	return out
}

// TestReorderWindowMatchesSet feeds onData reordered, duplicated
// sequences and holds the window bitmap to a map after every packet: the
// receiver's rcvNxt, rcvMax and the flow's rcvd, whether each sequence
// below rcvMax is held, and which sequences repairHole resends.
func TestReorderWindowMatchesSet(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		eng, sf := receiver(t)
		ref := map[int64]bool{}
		var refNxt, refMax int64
		stream := reorderedStream(rand.New(rand.NewSource(seed)), 8000)
		for i, seq := range stream {
			receive(sf, seq)
			eng.Run()
			ref[seq] = true
			for ref[refNxt] {
				refNxt++
			}
			refMax = max(refMax, seq+1)
			if sf.rcvNxt != refNxt || sf.rcvMax != refMax || sf.f.rcvd != int64(len(ref)) {
				t.Fatalf("seed %d packet %d (seq %d): rcvNxt %d rcvMax %d rcvd %d, want %d %d %d",
					seed, i, seq, sf.rcvNxt, sf.rcvMax, sf.f.rcvd, refNxt, refMax, len(ref))
			}
			var holes []int64
			for s := int64(0); s < refMax; s++ {
				// Everything below refNxt is in ref and held by nobody.
				held := s > refNxt && ref[s]
				if got := sf.ooo.has(s, sf.rcvNxt); got != held {
					t.Fatalf("seed %d packet %d (seq %d): held(%d) = %v, want %v", seed, i, seq, s, got, held)
				}
				if s >= refNxt && !ref[s] {
					holes = append(holes, s)
				}
			}
			if got := repairs(sf); !slices.Equal(got, holes) {
				t.Fatalf("seed %d packet %d (seq %d): repairHole resent %v, want %v", seed, i, seq, got, holes)
			}
		}
		// The stream must have forced growth and wrapped the grown ring.
		if words := len(sf.ooo.words); words <= oooInitWords || sf.rcvNxt < 3*64*int64(words) {
			t.Errorf("seed %d: window of %d words, rcvNxt %d: want growth past %d words and three wraps",
				seed, words, sf.rcvNxt, oooInitWords)
		}
	}
}

// repairs runs one SACK recovery pass from just below rcvNxt to rcvMax
// and returns the sequences repairHole resent, in order.
func repairs(sf *subflow) []int64 {
	sf.sndUna = 0
	sf.holeCursor = max(sf.rcvNxt-1, 0)
	sf.recover = sf.rcvMax
	var got []int64
	for {
		before := sf.f.Retransmits
		sf.repairHole()
		if sf.f.Retransmits == before {
			return got
		}
		got = append(got, sf.holeCursor-1)
	}
}

// TestReceiverReorderZeroAlloc: once its window has grown to the
// reordering it sees, a receiver absorbs reordered windows, ACKs
// included, without allocating.
func TestReceiverReorderZeroAlloc(t *testing.T) {
	eng, sf := receiver(t)
	rng := rand.New(rand.NewSource(1))
	const window = 200
	perms := make([][]int, 8)
	for i := range perms {
		perms[i] = rng.Perm(window)
	}
	var next int64
	absorb := func() {
		for _, perm := range perms {
			for _, i := range perm {
				receive(sf, next+int64(i))
			}
			next += window
			eng.Run()
		}
	}
	absorb() // warm the window, the packet freelist and the lanes
	if avg := testing.AllocsPerRun(50, absorb); avg != 0 {
		t.Errorf("allocs per %d reordered packets = %v, want 0", len(perms)*window, avg)
	}
	if sf.rcvNxt != next {
		t.Errorf("rcvNxt = %d after %d packets in full windows", sf.rcvNxt, next)
	}
}
