package report

import (
	"fmt"
	"sort"
	"strings"

	"pnet/internal/obs"
)

// Divergence localization: given two fingerprint checkpoint streams from
// runs that should have been identical (same experiment, same seed,
// different worker count / branch / machine), find the first epoch where
// their determinism chains part ways — and, when per-event journals for
// that epoch are available, the exact first divergent event.
//
// Engine NetIDs are attach-order and therefore not comparable across
// runs (workers > 1 attaches in completion order), so engines are paired
// canonically: each engine is keyed by its checkpoint hash sequence and
// the two runs' engines are sorted by that key and paired index-wise.
// Two identical runs pair exactly; two diverging runs pair their
// identical engines first and leave the diverging ones aligned at the
// end, which is as good as pairing gets without cross-run IDs.
//
// The chains are cumulative, so "checkpoints match" is a prefix-closed
// predicate over epochs; the first divergent epoch is found by binary
// search rather than a scan — the bisection that gives the pnetstat
// subcommand its name.

// EngineChain is one engine's checkpoint sequence, extracted from a
// stream and sorted by epoch.
type EngineChain struct {
	Net         int
	EpochEvents int64
	Checkpoints []obs.FingerprintRecord
}

// key is the canonical pairing key: the hash sequence itself.
func (e EngineChain) key() string {
	var b strings.Builder
	for _, cp := range e.Checkpoints {
		b.WriteString(cp.Hash)
	}
	return b.String()
}

// ExtractChains groups a stream's fingerprint records by engine and
// sorts each engine's checkpoints by epoch.
func ExtractChains(st *Stream) []EngineChain {
	byNet := map[int][]obs.FingerprintRecord{}
	for _, r := range st.Fingerprints {
		byNet[r.Net] = append(byNet[r.Net], r)
	}
	out := make([]EngineChain, 0, len(byNet))
	for net, cps := range byNet {
		sort.Slice(cps, func(i, j int) bool { return cps[i].Epoch < cps[j].Epoch })
		out = append(out, EngineChain{Net: net, EpochEvents: cps[0].EpochEvents, Checkpoints: cps})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key() < out[j].key() })
	return out
}

// DivergentEvent is the event-level localization inside the divergent
// epoch, available when both runs supplied journals.
type DivergentEvent struct {
	// Index is the first journal position (within the epoch) where the
	// two runs disagree; -1 if one journal is a strict prefix of the
	// other (the shorter run simply stopped).
	Index int64
	// Base and Cur are the records at that position (zero Type if absent
	// on that side).
	Base, Cur obs.FingerprintEventRecord
	// ContextBase and ContextCur are the ±K windows around the event.
	ContextBase, ContextCur []obs.FingerprintEventRecord
}

// Divergence is the verdict of comparing two fingerprint streams.
type Divergence struct {
	// Match is true when every paired engine's chain is identical end to
	// end and the runs have the same engine count.
	Match bool
	// Engines is the number of paired engines; Note carries structural
	// mismatches (engine count, cadence) that preempt bisection.
	Engines int
	Note    string

	// The earliest divergence across all pairs:
	Pair              int   // pair index (canonical order)
	BaseNet, CurNet   int   // the pair's NetIDs in each stream
	Epoch             int64 // first divergent epoch
	Events            int64 // cumulative events at that checkpoint
	BaseHash, CurHash string
	// Planes lists the planes whose chains differ at the divergent
	// checkpoint; HostDiffers marks the plane-less (timer) chain.
	Planes      []int32
	HostDiffers bool

	// Event is the event-level localization, set by LocalizeEvents.
	Event *DivergentEvent
}

// FindDivergence pairs the two streams' engines canonically and binary-
// searches each pair's checkpoints for the first divergent epoch,
// returning the earliest divergence found (by epoch, then pair index).
func FindDivergence(base, cur *Stream) (*Divergence, error) {
	bc := ExtractChains(base)
	cc := ExtractChains(cur)
	if len(bc) == 0 || len(cc) == 0 {
		return nil, fmt.Errorf("report: no fingerprint records (base %d engines, cur %d) — were the runs made with -fingerprint?", len(bc), len(cc))
	}
	d := &Divergence{Engines: len(bc), Epoch: -1}
	if len(bc) != len(cc) {
		d.Note = fmt.Sprintf("engine count differs: base has %d, cur has %d — the runs did not execute the same simulations", len(bc), len(cc))
		return d, nil
	}
	if be, ce := bc[0].EpochEvents, cc[0].EpochEvents; be != ce {
		d.Note = fmt.Sprintf("checkpoint cadence differs: base epoch=%d events, cur epoch=%d — rerun with matching -fingerprint-epoch", be, ce)
		return d, nil
	}
	found := false
	for i := range bc {
		b, c := bc[i], cc[i]
		n := len(b.Checkpoints)
		if len(c.Checkpoints) < n {
			n = len(c.Checkpoints)
		}
		// Chains are cumulative: equal checkpoints stay equal until the
		// first divergence, after which every checkpoint differs. That
		// makes "differs at epoch i" monotone in i — binary-searchable.
		first := sort.Search(n, func(j int) bool {
			return b.Checkpoints[j].Hash != c.Checkpoints[j].Hash
		})
		if first == n {
			if len(b.Checkpoints) == len(c.Checkpoints) {
				continue // identical end to end
			}
			// One run recorded more epochs: the shared prefix matches, so
			// the divergence is the first checkpoint only one side has.
			longer := b.Checkpoints
			if len(c.Checkpoints) > len(b.Checkpoints) {
				longer = c.Checkpoints
			}
			cp := longer[n]
			if !found || cp.Epoch < d.Epoch {
				found = true
				d.Pair, d.BaseNet, d.CurNet = i, b.Net, c.Net
				d.Epoch, d.Events = cp.Epoch, cp.Events
				d.BaseHash, d.CurHash = hashAt(b.Checkpoints, n), hashAt(c.Checkpoints, n)
				d.Planes, d.HostDiffers = nil, false
			}
			continue
		}
		bcp, ccp := b.Checkpoints[first], c.Checkpoints[first]
		if !found || bcp.Epoch < d.Epoch {
			found = true
			d.Pair, d.BaseNet, d.CurNet = i, b.Net, c.Net
			d.Epoch, d.Events = bcp.Epoch, bcp.Events
			d.BaseHash, d.CurHash = bcp.Hash, ccp.Hash
			d.Planes, d.HostDiffers = divergentPlanes(bcp, ccp)
		}
	}
	d.Match = !found
	return d, nil
}

func hashAt(cps []obs.FingerprintRecord, i int) string {
	if i < len(cps) {
		return cps[i].Hash
	}
	return "(run ended)"
}

// divergentPlanes names the per-plane chains that differ at a
// checkpoint — the attribution that tells a debugger which plane's event
// order broke first.
func divergentPlanes(b, c obs.FingerprintRecord) (planes []int32, host bool) {
	host = b.Host != c.Host
	bp := map[int32]string{}
	for _, p := range b.Planes {
		bp[p.Plane] = p.Hash
	}
	seen := map[int32]bool{}
	for _, p := range c.Planes {
		seen[p.Plane] = true
		if bp[p.Plane] != p.Hash {
			planes = append(planes, p.Plane)
		}
	}
	for _, p := range b.Planes {
		if !seen[p.Plane] {
			planes = append(planes, p.Plane)
		}
	}
	sort.Slice(planes, func(i, j int) bool { return planes[i] < planes[j] })
	return planes, host
}

// LocalizeEvents refines a checkpoint-level divergence to the first
// divergent event, given per-event journals (pnetbench
// -fingerprint-journal) from both runs. Only the divergent (net, epoch)
// is consulted, so journals recorded for just that epoch's re-run
// suffice. K sets the ± context window.
func (d *Divergence) LocalizeEvents(base, cur *Stream, k int) error {
	if d.Match || d.Epoch < 0 {
		return fmt.Errorf("report: no divergent epoch to localize")
	}
	be := journalEpoch(base, d.BaseNet, d.Epoch)
	ce := journalEpoch(cur, d.CurNet, d.Epoch)
	if len(be) == 0 || len(ce) == 0 {
		return fmt.Errorf("report: no journal records for the divergent epoch (base net %d: %d, cur net %d: %d) — rerun both with -fingerprint-journal",
			d.BaseNet, len(be), d.CurNet, len(ce))
	}
	n := len(be)
	if len(ce) < n {
		n = len(ce)
	}
	// Search over the cumulative chain hashes, not the event identities:
	// after a swapped pair the identities match again, but the chains
	// stay apart forever — the monotone predicate bisection needs.
	first := sort.Search(n, func(i int) bool { return be[i].Hash != ce[i].Hash })
	ev := &DivergentEvent{Index: -1}
	if first < n {
		ev.Index = be[first].I
		ev.Base, ev.Cur = be[first], ce[first]
	} else if len(be) != len(ce) {
		first = n // one journal is a prefix of the other
		if first < len(be) {
			ev.Index, ev.Base = be[first].I, be[first]
		} else {
			ev.Index, ev.Cur = ce[first].I, ce[first]
		}
	} else {
		return fmt.Errorf("report: journals for epoch %d are identical — the divergence is in another epoch or engine pairing", d.Epoch)
	}
	ev.ContextBase = window(be, first, k)
	ev.ContextCur = window(ce, first, k)
	d.Event = ev
	return nil
}

// journalEpoch returns one engine's journal records for one epoch, in
// index order.
func journalEpoch(st *Stream, net int, epoch int64) []obs.FingerprintEventRecord {
	var out []obs.FingerprintEventRecord
	for _, r := range st.FPEvents {
		if r.Net == net && r.Epoch == epoch {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].I < out[j].I })
	return out
}

func window(xs []obs.FingerprintEventRecord, at, k int) []obs.FingerprintEventRecord {
	lo, hi := at-k, at+k+1
	if lo < 0 {
		lo = 0
	}
	if hi > len(xs) {
		hi = len(xs)
	}
	return append([]obs.FingerprintEventRecord(nil), xs[lo:hi]...)
}

// String renders the divergence verdict for humans — the output of
// `pnetstat divergence`.
func (d *Divergence) String() string {
	var b strings.Builder
	if d.Note != "" {
		fmt.Fprintf(&b, "DIVERGED (structural): %s\n", d.Note)
		return b.String()
	}
	if d.Match {
		fmt.Fprintf(&b, "MATCH: %d engine(s), all checkpoint chains identical\n", d.Engines)
		return b.String()
	}
	fmt.Fprintf(&b, "DIVERGED: engine pair %d (base net %d, cur net %d) at epoch %d (≤ %d events)\n",
		d.Pair, d.BaseNet, d.CurNet, d.Epoch, d.Events)
	fmt.Fprintf(&b, "  global chain: base %s != cur %s\n", d.BaseHash, d.CurHash)
	if len(d.Planes) > 0 || d.HostDiffers {
		b.WriteString("  diverging chains:")
		for _, p := range d.Planes {
			fmt.Fprintf(&b, " plane %d", p)
		}
		if d.HostDiffers {
			b.WriteString(" host(timers)")
		}
		b.WriteByte('\n')
	}
	if ev := d.Event; ev != nil {
		fmt.Fprintf(&b, "  first divergent event: epoch %d index %d\n", d.Epoch, ev.Index)
		if ev.Base.Type != "" {
			fmt.Fprintf(&b, "    base: %s\n", fmtEvent(ev.Base))
		} else {
			b.WriteString("    base: (run ended before this event)\n")
		}
		if ev.Cur.Type != "" {
			fmt.Fprintf(&b, "    cur:  %s\n", fmtEvent(ev.Cur))
		} else {
			b.WriteString("    cur:  (run ended before this event)\n")
		}
		if len(ev.ContextBase) > 0 {
			b.WriteString("  context (base):\n")
			for _, r := range ev.ContextBase {
				mark := "  "
				if r.I == ev.Index {
					mark = "->"
				}
				fmt.Fprintf(&b, "    %s i=%-6d %s\n", mark, r.I, fmtEvent(r))
			}
		}
		if len(ev.ContextCur) > 0 {
			b.WriteString("  context (cur):\n")
			for _, r := range ev.ContextCur {
				mark := "  "
				if r.I == ev.Index {
					mark = "->"
				}
				fmt.Fprintf(&b, "    %s i=%-6d %s\n", mark, r.I, fmtEvent(r))
			}
		}
	} else {
		fmt.Fprintf(&b, "  (rerun both with -fingerprint-journal and pass the journals to localize the exact event)\n")
	}
	return b.String()
}

func fmtEvent(r obs.FingerprintEventRecord) string {
	switch r.Kind {
	case "timer":
		return fmt.Sprintf("t=%dps timer", r.TPs)
	default:
		return fmt.Sprintf("t=%dps %s plane=%d link=%d flow=%d seq=%d size=%d",
			r.TPs, r.Kind, r.Plane, r.Link, r.Flow, r.Seq, r.Size)
	}
}
