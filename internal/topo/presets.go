package topo

import "fmt"

// NetworkSet holds the four network types compared throughout the paper's
// evaluation (§5): a serial low-bandwidth baseline, its N-way parallel
// homogeneous and (where applicable) heterogeneous versions, and the ideal
// serial high-bandwidth network with N-times-faster links.
type NetworkSet struct {
	SerialLow      *Topology
	ParallelHomo   *Topology
	ParallelHetero *Topology // nil for fat-tree sets: replicas are identical
	SerialHigh     *Topology
}

// FatTreeSet builds the four fat-tree evaluation networks: each parallel
// plane is an identical k-ary fat tree with speed-Gb/s links; the serial
// high-bandwidth network is the same tree with planes*speed links. There is
// no heterogeneous fat-tree variant — replicated fat trees are identical by
// construction, which is exactly the paper's observation.
func FatTreeSet(k, planes int, speed float64) NetworkSet {
	if err := CheckFatTree(k, planes); err != nil {
		panic(err)
	}
	plane := FatTreePlane(k)
	homo := make([]PlaneSpec, planes)
	for i := range homo {
		homo[i] = plane
	}
	return NetworkSet{
		SerialLow:    Assemble(fmt.Sprintf("serial-low ft%d 1x%.0fG", k, speed), speed, plane),
		ParallelHomo: Assemble(fmt.Sprintf("parallel-homo ft%d %dx%.0fG", k, planes, speed), speed, homo...),
		SerialHigh:   Assemble(fmt.Sprintf("serial-high ft%d 1x%.0fG", k, float64(planes)*speed), float64(planes)*speed, plane),
	}
}

// JellyfishSet builds the four Jellyfish evaluation networks. Every plane
// uses the same switch count, network degree and hosts per switch; the
// homogeneous P-Net replicates the seed-derived plane, while the
// heterogeneous P-Net instantiates each plane with a distinct seed
// (seed, seed+1, ...), giving different random graphs — the source of the
// shorter-path advantage the paper exploits.
func JellyfishSet(switches, netDegree, hostsPerSwitch, planes int, speed float64, seed int64) NetworkSet {
	if err := CheckJellyfish(switches, netDegree, hostsPerSwitch, planes); err != nil {
		panic(err)
	}
	base := JellyfishPlane(switches, netDegree, hostsPerSwitch, seed)
	homo := make([]PlaneSpec, planes)
	for i := range homo {
		homo[i] = base
	}
	hetero := make([]PlaneSpec, planes)
	hetero[0] = base
	for i := 1; i < planes; i++ {
		hetero[i] = JellyfishPlane(switches, netDegree, hostsPerSwitch, seed+int64(i))
	}
	name := func(kind string, n int, sp float64) string {
		return fmt.Sprintf("%s jf%d-%d %dx%.0fG", kind, switches, netDegree, n, sp)
	}
	return NetworkSet{
		SerialLow:      Assemble(name("serial-low", 1, speed), speed, base),
		ParallelHomo:   Assemble(name("parallel-homo", planes, speed), speed, homo...),
		ParallelHetero: Assemble(name("parallel-hetero", planes, speed), speed, hetero...),
		SerialHigh:     Assemble(name("serial-high", 1, float64(planes)*speed), float64(planes)*speed, base),
	}
}

// ScaledJellyfish returns a reduced-size Jellyfish set with the same
// 50% host/network port split as the paper's 686-host configuration, for
// fast tests and benchmarks. hostsPerSwitch is fixed at the paper's 7:7
// ratio scaled down to 4:4 on 8-port switches.
func ScaledJellyfish(switches, planes int, speed float64, seed int64) NetworkSet {
	return JellyfishSet(switches, 4, 4, planes, speed, seed)
}

// CheckMixed reports why MixedPNet(k, planes, ·, ·) cannot be built, or
// nil (see CheckFatTree). The expander planes' shape follows from k, so
// the fat tree's rule covers them.
func CheckMixed(k, planes int) error {
	if err := CheckFatTree(k, planes); err != nil {
		return err
	}
	if planes < 2 {
		return fmt.Errorf("topo: mixed P-Net planes=%d: need at least 2, a fat tree and an expander", planes)
	}
	return nil
}

// MixedPNet builds the §7 "different topology types" P-Net: plane 0 is a
// k-ary fat tree and planes 1..planes-1 are distinct Jellyfish expanders
// over the same hosts, built from the same k-port switch chips (k/2
// hosts and k/2 network ports per expander switch). Operators would pin
// throughput-oriented traffic to the fat tree plane and latency-critical
// traffic to the expander planes (shorter average paths).
func MixedPNet(k, planes int, speed float64, seed int64) *Topology {
	if err := CheckMixed(k, planes); err != nil {
		panic(err)
	}
	specs := make([]PlaneSpec, planes)
	specs[0] = FatTreePlane(k)
	hosts := specs[0].Hosts()
	hps := k / 2
	switches := hosts / hps
	for i := 1; i < planes; i++ {
		specs[i] = JellyfishPlane(switches, k-hps, hps, seed+int64(i))
	}
	return Assemble(fmt.Sprintf("mixed ft%d+%dxjf %dx%.0fG", k, planes-1, planes, speed),
		speed, specs...)
}
