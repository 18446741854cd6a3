package topo

import (
	"testing"

	"pnet/internal/graph"
)

func TestHopCountSweepBaseline(t *testing.T) {
	set := ScaledJellyfish(16, 1, 100, 3)
	pts := HopCountSweep(set.SerialLow, []float64{0}, 200, 1, 1)
	if len(pts) != 1 {
		t.Fatalf("points = %d", len(pts))
	}
	if pts[0].Unreachable != 0 {
		t.Errorf("unreachable at 0%% failures: %v", pts[0].Unreachable)
	}
	// Host-to-host in a Jellyfish: at least host-tor-tor-host = 3 links.
	if pts[0].AvgHops < 3 {
		t.Errorf("avg hops = %v, want >= 3", pts[0].AvgHops)
	}
}

func TestHopCountMonotoneDegradation(t *testing.T) {
	set := ScaledJellyfish(16, 1, 100, 3)
	pts := HopCountSweep(set.SerialLow, []float64{0, 0.2, 0.4}, 200, 3, 1)
	if pts[2].AvgHops < pts[0].AvgHops {
		t.Errorf("hops decreased under failures: %v -> %v", pts[0].AvgHops, pts[2].AvgHops)
	}
}

func TestParallelDegradesLessThanSerial(t *testing.T) {
	// The Figure 14 headline: at 40% failures, a 4-plane homogeneous
	// P-Net loses far fewer short paths than the serial network.
	set := ScaledJellyfish(24, 4, 100, 5)
	sweep := func(tp *Topology) []HopPoint { return HopCountSweep(tp, []float64{0, 0.4}, 300, 3, 9) }

	serial := sweep(set.SerialLow)
	parallel := sweep(set.ParallelHomo)

	serialGrowth := serial[1].AvgHops / serial[0].AvgHops
	parallelGrowth := parallel[1].AvgHops / parallel[0].AvgHops
	if parallelGrowth >= serialGrowth {
		t.Errorf("parallel growth %.3f >= serial growth %.3f", parallelGrowth, serialGrowth)
	}
	if parallel[1].Unreachable > serial[1].Unreachable {
		t.Errorf("parallel unreachable %.3f > serial %.3f",
			parallel[1].Unreachable, serial[1].Unreachable)
	}
}

func TestHeterogeneousStartsShorter(t *testing.T) {
	// Heterogeneous planes offer shorter min paths at zero failures.
	set := ScaledJellyfish(24, 4, 100, 5)
	homo := HopCountSweep(set.ParallelHomo, []float64{0}, 300, 1, 2)
	hetero := HopCountSweep(set.ParallelHetero, []float64{0}, 300, 1, 2)
	if hetero[0].AvgHops >= homo[0].AvgHops {
		t.Errorf("hetero avg hops %.3f >= homo %.3f", hetero[0].AvgHops, homo[0].AvgHops)
	}
}

func TestSweepDeterministicForSeed(t *testing.T) {
	set := ScaledJellyfish(16, 2, 100, 3)
	a := HopCountSweep(set.ParallelHomo, []float64{0.3}, 100, 2, 42)
	b := HopCountSweep(set.ParallelHomo, []float64{0.3}, 100, 2, 42)
	if a[0].AvgHops != b[0].AvgHops || a[0].Unreachable != b[0].Unreachable {
		t.Error("sweep not deterministic for fixed seed")
	}
}

func TestSweepFracZeroIsFailureFree(t *testing.T) {
	// frac=0 must be a no-op sweep: nothing unreachable, and every trial
	// measures the identical pristine graph — listing the fraction twice
	// must yield bit-identical points even though the RNG advances
	// between them.
	set := ScaledJellyfish(16, 2, 100, 3)
	pts := HopCountSweep(set.ParallelHomo, []float64{0, 0}, 200, 3, 7)
	for i, pt := range pts {
		if pt.Unreachable != 0 {
			t.Errorf("point %d: unreachable = %v at frac=0", i, pt.Unreachable)
		}
	}
	if pts[0] != pts[1] {
		t.Errorf("frac=0 points differ: %+v vs %+v", pts[0], pts[1])
	}
}

func TestSweepFracOneKillsEveryCable(t *testing.T) {
	// frac=1 downs every inter-switch cable. Host uplinks never fail, so
	// the only survivors are same-switch pairs at exactly
	// host->switch->host = 2 hops; everything else is unreachable.
	set := ScaledJellyfish(16, 1, 100, 3)
	pts := HopCountSweep(set.SerialLow, []float64{1}, 500, 2, 5)
	pt := pts[0]
	// 4 hosts per switch: ~5% of random ordered pairs share a switch.
	if pt.Unreachable < 0.8 || pt.Unreachable >= 1 {
		t.Errorf("unreachable = %v, want most pairs cut off but same-switch pairs alive", pt.Unreachable)
	}
	if pt.AvgHops != 2 {
		t.Errorf("avg hops over survivors = %v, want exactly 2 (host-switch-host)", pt.AvgHops)
	}
}

func TestOriginalGraphUntouched(t *testing.T) {
	set := ScaledJellyfish(16, 1, 100, 3)
	tp := set.SerialLow
	HopCountSweep(tp, []float64{0.5}, 50, 1, 1)
	for i := 0; i < tp.G.NumLinks(); i++ {
		if !tp.G.Link(graph.LinkID(i)).Up {
			t.Fatal("sweep modified the original topology")
		}
	}
}
