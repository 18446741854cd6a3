package sim

// Host sub-sharding (ROADMAP item 1, continued): under a ShardSet the
// host boundary — transport callbacks, final-hop delivers, and the NIC
// uplink queues — can itself be partitioned across H sub-shard engines,
// keyed by host. Every cross-sub-shard event edge is still a host↔ToR
// link one full propagation delay long, so the conservative-lookahead
// argument of shard.go carries over unchanged.
//
// The one structural constraint is that a TCP flow's two endpoints share
// state synchronously (the receiver's ACK is sent from inside the
// sender's packet delivery, and sender-side SACK repair reads receiver
// maps), so both endpoints of every flow must live on one sub-shard.
// Transports declare that with Network.Colocate, which union-finds host
// components and migrates the smaller component onto the larger one's
// engine. Binding is pure placement: it decides which engine fires a
// host's events, never their order, so output stays byte-identical to
// serial at every (shards, host-shards) combination.

import (
	"sort"

	"pnet/internal/graph"
)

// HostBind is a host's placement cell: the sub-shard engine that fires
// its delivers, timers, and NIC uplinks. Cells are per-host and updated
// in place by Colocate, so holders (flows, monitors) may cache them.
type HostBind struct {
	eng   *Engine
	shard int
}

// Eng returns the engine that fires the bound host's events — the
// correct clock to read from transport code running on that host.
func (b *HostBind) Eng() *Engine { return b.eng }

// Shard returns the engine's index in the ShardSet (0 when serial or
// when host sub-sharding is off) — the pool index for NewPacketOn.
func (b *HostBind) Shard() int { return b.shard }

// BindOf returns node's placement cell. Hosts under an H>1 ShardSet get
// their per-host cell; everything else (serial runs, H=1, non-host
// nodes) shares one cell naming the primary engine, so callers can hold
// a bind unconditionally.
func (n *Network) BindOf(node graph.NodeID) *HostBind {
	if n.binds != nil {
		if b := n.binds[node]; b != nil {
			return b
		}
	}
	if n.serialBind == nil {
		n.serialBind = &HostBind{eng: n.Eng, shard: 0}
	}
	return n.serialBind
}

// ufFind resolves a node's colocation-component root, with path halving.
func (n *Network) ufFind(x graph.NodeID) graph.NodeID {
	for n.ufParent[x] != x {
		n.ufParent[x] = n.ufParent[n.ufParent[x]]
		x = n.ufParent[x]
	}
	return x
}

// Colocate merges the colocation components of hosts a and b so both
// fire on one sub-shard engine — required before coupling their state
// synchronously (a transport flow between them). The smaller component
// moves: its hosts' cells and uplink queues are rebound in place and any
// pending events on the vacated engine are re-routed with their seqs
// intact, which preserves pop order. Before the ShardSet materializes
// (PrepareHostBinds ran, NewShardSet has not) every cell still names the
// serial engine, so the merge only updates the union-find and the
// round-robin plannedShard — which is exactly what makes the lazy
// default binding identical to the eager one. No-op when host
// sub-sharding is off or the hosts already share a component. Must be
// called at a serial point; calls during an open window panic (shards
// are running).
func (n *Network) Colocate(a, b graph.NodeID) {
	if n.binds == nil || a == b {
		return
	}
	ra, rb := n.ufFind(a), n.ufFind(b)
	if ra == rb || n.binds[ra] == nil || n.binds[rb] == nil {
		return
	}
	set := n.shardSet
	if set != nil && set.windowOpen {
		panic("sim: Colocate during an open window")
	}
	// The larger component wins (fewer rebinds); ties go to the lower
	// root so the merge order NewFlow produces is deterministic.
	win, lose := ra, rb
	if len(n.ufMembers[lose]) > len(n.ufMembers[win]) ||
		(len(n.ufMembers[lose]) == len(n.ufMembers[win]) && lose < win) {
		win, lose = lose, win
	}
	target := n.binds[win]
	old := n.binds[lose].eng
	for _, h := range n.ufMembers[lose] {
		hb := n.binds[h]
		hb.eng, hb.shard = target.eng, target.shard
		n.plannedShard[h] = n.plannedShard[win]
		for _, l := range n.hostUplinks[h] {
			q := &n.queues[l]
			q.eng, q.shard = target.eng, target.shard
		}
	}
	n.ufMembers[win] = append(n.ufMembers[win], n.ufMembers[lose]...)
	n.ufMembers[lose] = nil
	n.ufParent[lose] = win
	if old == target.eng {
		return
	}
	// Re-home the vacated engine's pending events (in-flight packets,
	// queue tx-completes) through the updated bindings. Seqs are true and
	// preserved, so re-pushing reproduces the exact pop order; events for
	// components still bound here simply land back on the same heap. old
	// is a shard member (binds exist only under a ShardSet), so its lane
	// is empty (scheduleFIFO falls back to the heap) and fn events are on
	// engines[0].timers, which never moves: the heap is all there is.
	pending := old.events
	old.events = nil
	for _, ev := range pending {
		set.engineFor(ev.who).events.push(ev)
	}
}

// ColocationGroups returns the current colocation components over bound
// hosts — each group's members sorted by node ID, groups sorted by their
// smallest member — the deterministic input a placement planner packs.
// Nil when host binds are absent.
func (n *Network) ColocationGroups() [][]graph.NodeID {
	if n.binds == nil {
		return nil
	}
	var out [][]graph.NodeID
	for _, h := range n.hostList {
		if n.ufMembers[h] == nil {
			continue // not a component root
		}
		g := append([]graph.NodeID(nil), n.ufMembers[h]...)
		sort.Slice(g, func(i, j int) bool { return g[i] < g[j] })
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}
