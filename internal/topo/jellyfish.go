package topo

import (
	"fmt"
	"math/rand"
)

// checkJellyfish reports why JellyfishSet(switches, netDegree,
// hostsPerSwitch, planes, ·, ·) cannot be built, or nil (see checkFatTree).
func checkJellyfish(switches, netDegree, hostsPerSwitch, planes int) error {
	switch {
	case switches < 2:
		return fmt.Errorf("topo: jellyfish switches=%d: need at least 2", switches)
	case netDegree < 1 || netDegree >= switches:
		return fmt.Errorf("topo: jellyfish degree=%d: must be in [1, switches-1 = %d]", netDegree, switches-1)
	case switches*netDegree%2 != 0:
		return fmt.Errorf("topo: jellyfish switches=%d x degree=%d: must be even, every cable has two ends", switches, netDegree)
	case hostsPerSwitch < 1:
		return fmt.Errorf("topo: jellyfish hostsper=%d: need at least 1", hostsPerSwitch)
	}
	return checkPlanes(planes)
}

// JellyfishPlane returns the PlaneSpec of a Jellyfish network [Singla et
// al., NSDI 2012]: a uniform random r-regular graph over switches, with
// hostsPerSwitch hosts attached to every switch. The construction follows
// the paper: repeatedly join random switch pairs that have free ports and
// are not yet adjacent; when progress stalls with free ports remaining,
// perform the paper's edge-swap fixup. The result is deterministic for a
// given seed — heterogeneous P-Nets are built from different seeds.
func JellyfishPlane(switches, netDegree, hostsPerSwitch int, seed int64) PlaneSpec {
	if err := checkJellyfish(switches, netDegree, hostsPerSwitch, 1); err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewSource(seed))

	adj := make([]map[int]bool, switches)
	free := make([]int, switches)
	for i := range adj {
		adj[i] = make(map[int]bool, netDegree)
		free[i] = netDegree
	}
	var edges [][2]int
	addEdge := func(a, b int) {
		adj[a][b] = true
		adj[b][a] = true
		free[a]--
		free[b]--
		edges = append(edges, [2]int{a, b})
	}
	removeEdge := func(idx int) (a, b int) {
		e := edges[idx]
		a, b = e[0], e[1]
		delete(adj[a], b)
		delete(adj[b], a)
		free[a]++
		free[b]++
		edges[idx] = edges[len(edges)-1]
		edges = edges[:len(edges)-1]
		return a, b
	}

	openSet := func() []int {
		var s []int
		for i, f := range free {
			if f > 0 {
				s = append(s, i)
			}
		}
		return s
	}

	for {
		open := openSet()
		if len(open) == 0 {
			break
		}
		// Try random pairings among switches with free ports.
		progress := false
		for attempt := 0; attempt < 50*len(open); attempt++ {
			a := open[rng.Intn(len(open))]
			b := open[rng.Intn(len(open))]
			if a == b || adj[a][b] || free[a] == 0 || free[b] == 0 {
				continue
			}
			addEdge(a, b)
			progress = true
			break
		}
		if progress {
			continue
		}
		// Stalled: either one switch holds all remaining free ports or the
		// remaining open switches are mutually adjacent. Apply the
		// Jellyfish fixup: remove a random existing edge (c,d) with
		// c,d not adjacent to some open switch x, then add (x,c),(x,d).
		x := -1
		for _, s := range open {
			if free[s] >= 1 {
				x = s
				break
			}
		}
		if x < 0 || len(edges) == 0 {
			break
		}
		swapped := false
		for attempt := 0; attempt < 20*len(edges); attempt++ {
			idx := rng.Intn(len(edges))
			c, d := edges[idx][0], edges[idx][1]
			if c == x || d == x || adj[x][c] || adj[x][d] {
				continue
			}
			if free[x] < 2 {
				// With a single free port we can only rewire one end:
				// replace (c,d) by (x,c), leaving d with a free port for a
				// later pairing round.
				removeEdge(idx)
				addEdge(x, c)
			} else {
				removeEdge(idx)
				addEdge(x, c)
				addEdge(x, d)
			}
			swapped = true
			break
		}
		if !swapped {
			break // give up; graph is as regular as this seed allows
		}
	}

	hosts := make([]int, switches*hostsPerSwitch)
	for s := 0; s < switches; s++ {
		for h := 0; h < hostsPerSwitch; h++ {
			hosts[s*hostsPerSwitch+h] = s
		}
	}
	return PlaneSpec{
		Switches: switches,
		Edges:    edges,
		HostPort: hosts,
		Kind:     "jellyfish",
	}
}

// Degrees returns the switch-to-switch degree of each switch in the spec.
func (p PlaneSpec) Degrees() []int {
	d := make([]int, p.Switches)
	for _, e := range p.Edges {
		d[e[0]]++
		d[e[1]]++
	}
	return d
}
