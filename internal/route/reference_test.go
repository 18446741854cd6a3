package route

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/topo"
)

// acrossPlanesReference is AcrossPlanes as a plain pipeline: per
// commodity, Yen's algorithm between the endpoints on every plane, the
// candidates stable-sorted by length, each equal-length group shuffled
// by the commodity's RNG, planes interleaved within each group, and the
// list cut to k.
func acrossPlanesReference(g *graph.Graph, masks [][]bool, cs []Commodity, k int, tie func(i int) int64) [][]graph.Path {
	out := make([][]graph.Path, len(cs))
	if k <= 0 {
		return out
	}
	if len(masks) == 0 {
		masks = [][]bool{nil}
	}
	perPlane := k
	if tie != nil {
		perPlane = k + 8
	}
	for i, c := range cs {
		var all []graph.Path
		for _, mask := range masks {
			all = append(all, graph.KShortestPathsMasked(g, c.Src, c.Dst, perPlane, mask)...)
		}
		sort.SliceStable(all, func(a, b int) bool { return all[a].Len() < all[b].Len() })
		if tie != nil {
			shuffleTies(all, rand.New(rand.NewSource(tie(i))))
		}
		all = interleavePlanes(g, all)
		if len(all) > k {
			all = all[:k]
		}
		out[i] = all
	}
	return out
}

// shuffleTies randomly permutes paths within each run of equal lengths,
// preserving the overall by-length ordering. Paths must be sorted by
// length.
func shuffleTies(paths []graph.Path, rng *rand.Rand) {
	for lo := 0; lo < len(paths); {
		hi := lo + 1
		for hi < len(paths) && paths[hi].Len() == paths[lo].Len() {
			hi++
		}
		group := paths[lo:hi]
		rng.Shuffle(len(group), func(i, j int) { group[i], group[j] = group[j], group[i] })
		lo = hi
	}
}

// interleavePlanes stably reorders paths so that, within each group of
// equal-length paths, planes alternate (plane 0, 1, 2, ..., 0, 1, ...).
// Paths must be sorted by length.
func interleavePlanes(g *graph.Graph, paths []graph.Path) []graph.Path {
	out := make([]graph.Path, 0, len(paths))
	for lo := 0; lo < len(paths); {
		hi := lo + 1
		for hi < len(paths) && paths[hi].Len() == paths[lo].Len() {
			hi++
		}
		out = append(out, interleaveGroup(g, paths[lo:hi])...)
		lo = hi
	}
	return out
}

func interleaveGroup(g *graph.Graph, group []graph.Path) []graph.Path {
	if len(group) <= 1 {
		return group
	}
	byPlane := map[int32][]graph.Path{}
	var planes []int32
	for _, p := range group {
		pl := p.Plane(g)
		if _, ok := byPlane[pl]; !ok {
			planes = append(planes, pl)
		}
		byPlane[pl] = append(byPlane[pl], p)
	}
	sort.Slice(planes, func(i, j int) bool { return planes[i] < planes[j] })
	out := make([]graph.Path, 0, len(group))
	for len(out) < len(group) {
		for _, pl := range planes {
			if ps := byPlane[pl]; len(ps) > 0 {
				out = append(out, ps[0])
				byPlane[pl] = ps[1:]
			}
		}
	}
	return out
}

// TestShuffleTiesPreservesGroups checks the reference's shuffle, which
// TestAcrossPlanesMatchesReference holds the merge to: on a
// heterogeneous Jellyfish network's length-sorted candidates it moves
// paths only within their length group and neither loses nor
// duplicates one.
func TestShuffleTiesPreservesGroups(t *testing.T) {
	jf := topo.JellyfishSet(10, 3, 2, 2, 100, 5).ParallelHetero
	var all []graph.Path
	for _, mask := range jf.G.PlaneMasks() {
		all = append(all, graph.KShortestPathsMasked(jf.G, jf.Hosts[0], jf.Hosts[len(jf.Hosts)-1], 16, mask)...)
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].Len() < all[b].Len() })
	shuffled := append([]graph.Path(nil), all...)
	shuffleTies(shuffled, rand.New(rand.NewSource(2)))
	count := map[string]int{}
	for i := range all {
		if shuffled[i].Len() != all[i].Len() {
			t.Fatalf("shuffle moved a path across length groups at %d", i)
		}
		count[fmt.Sprint(all[i].Links)]++
		count[fmt.Sprint(shuffled[i].Links)]--
	}
	for k, n := range count {
		if n != 0 {
			t.Fatalf("shuffle lost or duplicated path %s", k)
		}
	}
}

// TestAcrossPlanesMatchesReference holds AcrossPlanes's merge, which
// walks the legs' sorted lists and stops at k, to the sort-shuffle-
// interleave-truncate pipeline, path for path. It covers fat trees and
// Jellyfish networks, serial, homogeneous and heterogeneous; K from 1
// to 32; tie seeds on and off; and per-plane masks, the planes in
// reverse (so that leg order is not plane order), and no masks (one
// search whose paths span every plane). Every host is a source; one
// endpoint pair repeats, so a tie RNG carried over from one commodity to
// the next shows; and one commodity is a host to itself. Every list is
// also checked for length order.
func TestAcrossPlanesMatchesReference(t *testing.T) {
	type net struct {
		name string
		tp   *topo.Topology
	}
	var nets []net
	for _, n := range []int{1, 2, 4} {
		ft := topo.FatTreeSet(4, n, 100)
		jf := topo.JellyfishSet(10, 3, 2, n, 100, 5)
		nets = append(nets, net{fmt.Sprintf("fattree/N=%d", n), ft.ParallelHomo},
			net{fmt.Sprintf("jellyfish-homo/N=%d", n), jf.ParallelHomo},
			net{fmt.Sprintf("jellyfish-hetero/N=%d", n), jf.ParallelHetero})
		if n == 1 {
			nets = append(nets, net{"fattree/serial", ft.SerialLow}, net{"jellyfish/serial", jf.SerialLow})
		}
	}
	ks := []int{1, 2, 3, 4, 8, 16, 32}
	for _, nt := range nets {
		t.Run(nt.name, func(t *testing.T) {
			g, h := nt.tp.G, nt.tp.Hosts
			last := len(h) - 1
			cs := []Commodity{{Src: h[0], Dst: h[last], Demand: 1}, {Src: h[3], Dst: h[3], Demand: 1}}
			for i := range h {
				cs = append(cs, Commodity{Src: h[i], Dst: h[(7*i+5)%len(h)], Demand: 1})
			}
			cs = append(cs, cs[0])
			planes := g.PlaneMasks()
			reversed := make([][]bool, len(planes))
			for i, m := range planes {
				reversed[len(planes)-1-i] = m
			}
			for _, mk := range []struct {
				name  string
				masks [][]bool
			}{{"planes", planes}, {"reversed", reversed}, {"none", nil}} {
				for _, k := range ks {
					for _, tie := range []func(int) int64{nil, func(i int) int64 { return 17 + int64(i)*0x9e3779b9 }} {
						what := fmt.Sprintf("%s K=%d tie=%t", mk.name, k, tie != nil)
						got := AcrossPlanes(g, mk.masks, cs, k, tie)
						want := acrossPlanesReference(g, mk.masks, cs, k, tie)
						for i := range cs {
							equalPathList(t, fmt.Sprintf("%s commodity %d", what, i), got[i], want[i])
							for j := 1; j < len(got[i]); j++ {
								if got[i][j].Len() < got[i][j-1].Len() {
									t.Fatalf("%s commodity %d: length order broken at %d", what, i, j)
								}
							}
						}
					}
				}
			}
		})
	}
}

func equalPathList(t *testing.T, what string, got, want []graph.Path) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, want %d", what, len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			t.Fatalf("%s: path %d is %v, want %v", what, i, got[i].Links, want[i].Links)
		}
	}
}
