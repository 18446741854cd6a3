package topo

import "fmt"

// checkFatTree reports why FatTreeSet(k, planes, ·) cannot be built, or
// nil. It and checkJellyfish state the builders' preconditions once: a
// builder calls its check first and panics with the error, a bad
// argument being a bug in the caller.
func checkFatTree(k, planes int) error {
	if k < 4 || k%2 != 0 {
		return fmt.Errorf("topo: fat tree arity k=%d: must be even and >= 4", k)
	}
	return checkPlanes(planes)
}

// FatTreePlane returns the PlaneSpec of a three-tier k-ary fat tree
// [Al-Fares et al., SIGCOMM 2008]: k pods of k/2 edge and k/2 aggregation
// switches plus (k/2)^2 core switches, serving k^3/4 hosts. k must be even
// and at least 4.
//
// Switch numbering within the plane: for pod p, edge switches come first
// (p*k + 0..k/2-1) then aggregation switches (p*k + k/2..k-1); core
// switches follow all pods.
func FatTreePlane(k int) PlaneSpec {
	if err := checkFatTree(k, 1); err != nil {
		panic(err)
	}
	half := k / 2
	numPods := k
	numCore := half * half
	numSwitches := numPods*k + numCore

	edgeSw := func(pod, i int) int { return pod*k + i }
	aggSw := func(pod, i int) int { return pod*k + half + i }
	coreSw := func(i int) int { return numPods*k + i }

	var edges [][2]int
	for pod := 0; pod < numPods; pod++ {
		// Edge <-> aggregation full bipartite within the pod.
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				edges = append(edges, [2]int{edgeSw(pod, e), aggSw(pod, a)})
			}
		}
		// Aggregation a connects to core switches a*half .. a*half+half-1.
		for a := 0; a < half; a++ {
			for c := 0; c < half; c++ {
				edges = append(edges, [2]int{aggSw(pod, a), coreSw(a*half + c)})
			}
		}
	}

	hosts := make([]int, numPods*half*half)
	for pod := 0; pod < numPods; pod++ {
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				hosts[pod*half*half+e*half+h] = edgeSw(pod, e)
			}
		}
	}

	return PlaneSpec{
		Switches: numSwitches,
		Edges:    edges,
		HostPort: hosts,
		Kind:     "fattree",
	}
}
