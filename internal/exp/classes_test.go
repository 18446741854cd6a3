package exp

import (
	"fmt"
	"testing"
)

// The §7 claims the isolation and mixed experiments make, held on three
// seeds: pinning a tenant to its own planes gives it the unloaded tail
// back, and a class pinned to the expander planes gets shorter RPCs than
// one pinned to the fat tree.

func TestIsolationShape(t *testing.T) {
	e, _ := ByID("isolation")
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tab := e.Run(Params{Seed: seed})
			p99 := map[string]float64{}
			for _, r := range tab.Rows {
				p99[r[0].String()] = r[2].V
			}
			base := p99["unloaded"]
			t.Logf("p99: unloaded %s, shared %.0fx, isolated %.2fx", secs(base), p99["shared planes"]/base, p99["isolated planes"]/base)
			if got := p99["isolated planes"] / base; got > 1.1 {
				t.Errorf("isolated RPC p99 is %.2fx the unloaded p99, want at most 1.1x", got)
			}
			if got := p99["shared planes"] / base; got < 10 {
				t.Errorf("shared RPC p99 is %.2fx the unloaded p99, want at least 10x", got)
			}
		})
	}
}

func TestMixedShape(t *testing.T) {
	e, _ := ByID("mixed")
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			median := map[string]float64{}
			for _, r := range e.Run(Params{Seed: seed}).Rows {
				if r[0].String() == "1500B RPC" {
					median[r[1].String()] = r[2].V
				}
			}
			ft, ex := median["fattree"], median["expander"]
			t.Logf("RPC median: fat tree %s, expander %s", secs(ft), secs(ex))
			if ex >= ft {
				t.Errorf("expander RPC median %s, fat-tree %s: want the expander's below", secs(ex), secs(ft))
			}
		})
	}
}
