package exp

import "testing"

// Smoke tests for the cheap experiments: each must produce a well-formed
// table with the expected networks/rows. The expensive packet-simulation
// experiments are exercised by the benchmark suite instead.

func TestDeployExperiment(t *testing.T) {
	e, _ := ByID("deploy")
	tab := e.Run(Params{Seed: 1})
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tab.Rows))
	}
	// Homogeneous bundling divides host cables by the plane count.
	if naive, bundled := tab.Rows[0][2].V, tab.Rows[1][2].V; naive != 4*bundled || bundled != 96 {
		t.Errorf("homogeneous host cables: naive %v, bundled %v; want 4x96 and 96", naive, bundled)
	}
}

func TestFig14Experiment(t *testing.T) {
	e, _ := ByID("fig14")
	tab := e.Run(Params{Seed: 1})
	if len(tab.Rows) != 15 { // 3 networks x 5 failure fractions
		t.Fatalf("rows = %d, want 15", len(tab.Rows))
	}
	nets := map[string]bool{}
	for _, r := range tab.Rows {
		nets[r[0].String()] = true
	}
	for _, want := range []string{"serial", "parallel homogeneous", "parallel heterogeneous"} {
		if !nets[want] {
			t.Errorf("missing network %q", want)
		}
	}
}

func TestFig6bExperiment(t *testing.T) {
	e, _ := ByID("fig6b")
	tab := e.Run(Params{Seed: 1})
	if len(tab.Rows) != 5 {
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// The headline shape: serial high-bw reaches ~8x, parallel stays low.
	if high := tab.Rows[4][1].V; high < 7 {
		t.Errorf("serial high-bw normalized throughput = %v, want ~8", high)
	}
	if par8 := tab.Rows[3][1].V; par8 >= 3 {
		t.Errorf("parallel 8x permutation = %v, want < 3 (ECMP can't exploit planes)", par8)
	}
}

func TestJfSizes(t *testing.T) {
	sw, deg, hps := jfSize(ScaleSmall)
	if sw*hps != 96 || deg != 4 {
		t.Errorf("small = %d/%d/%d", sw, deg, hps)
	}
	sw, deg, hps = jfSize(ScaleFull)
	if sw != 98 || deg != 7 || hps != 7 || sw*hps != 686 {
		t.Errorf("full = %d/%d/%d, want the paper's 686-host config", sw, deg, hps)
	}
	if ftArity(ScaleFull) != 16 {
		t.Error("full fat tree arity != 16")
	}
}
