package workload

import (
	"testing"

	"pnet/internal/sim"
	"pnet/internal/tcp"
	"pnet/internal/topo"
)

func TestRunIncastCompletes(t *testing.T) {
	set := topo.ScaledJellyfish(8, 2, 100, 3)
	d := newTestDriver(t, set.ParallelHomo)
	res, err := RunIncast(d, IncastConfig{
		FanIn:      8,
		BlockBytes: 100_000,
		Rounds:     3,
		Sel:        Selection{Policy: ECMP},
		Seed:       2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CompletionTimes) != 3 {
		t.Fatalf("rounds = %d", len(res.CompletionTimes))
	}
	for _, ct := range res.CompletionTimes {
		if ct <= 0 {
			t.Fatal("non-positive completion time")
		}
	}
}

func TestRunIncastFanInTooLarge(t *testing.T) {
	set := topo.ScaledJellyfish(8, 2, 100, 3)
	d := newTestDriver(t, set.ParallelHomo)
	if _, err := RunIncast(d, IncastConfig{FanIn: 1000, BlockBytes: 1000, Rounds: 1}); err == nil {
		t.Error("no error for oversized fan-in")
	}
}

func TestIncastParallelDropsFewerThanSerial(t *testing.T) {
	set := topo.ScaledJellyfish(8, 4, 100, 3)
	run := func(tp *topo.Topology) int64 {
		d := NewDriver(tp, sim.Config{}, tcp.Config{})
		res, err := RunIncast(d, IncastConfig{
			FanIn:      16,
			BlockBytes: 150_000,
			Rounds:     5,
			Sel:        Selection{Policy: ECMP},
			Seed:       4,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Drops
	}
	serial := run(set.SerialLow)
	parallel := run(set.ParallelHomo)
	if parallel >= serial {
		t.Errorf("parallel incast drops %d >= serial %d", parallel, serial)
	}
}

func TestClassSelectionInDriver(t *testing.T) {
	set := topo.ScaledJellyfish(8, 4, 100, 3)
	d := newTestDriver(t, set.ParallelHomo)
	if err := d.PNet.SetClass("x", []int{1, 3}); err != nil {
		t.Fatal(err)
	}
	tp := set.ParallelHomo
	for _, sel := range []Selection{
		{Policy: Shortest, Class: "x"},
		{Policy: ECMP, Class: "x"},
		{Policy: KSP, K: 4, Class: "x"},
	} {
		paths, err := d.PathsFor(tp.Hosts[0], tp.Hosts[20], sel)
		if err != nil {
			t.Fatalf("%v: %v", sel, err)
		}
		for _, p := range paths {
			if pl := p.Plane(tp.G); pl != 1 && pl != 3 {
				t.Errorf("%v: path on plane %d", sel, pl)
			}
		}
	}
	// Undefined class errors.
	if _, err := d.PathsFor(tp.Hosts[0], tp.Hosts[20], Selection{Policy: Shortest, Class: "nope"}); err == nil {
		t.Error("no error for undefined class")
	}
}
