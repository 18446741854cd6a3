package report

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"pnet/internal/obs"
)

// Divergence localization: given two fingerprint checkpoint streams from
// runs that should have been identical (same experiment, same seed,
// different worker count / branch / machine), find the first epoch where
// their determinism chains part ways, and name the event that closed it
// on each side. At -fingerprint-epoch 1 every event closes an epoch, so
// that is the exact first divergent event.
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
// subcommand its name. The search runs over chain values, not event
// identities: after a swapped pair the identities match again, but the
// chains stay apart forever.

// ExtractChains groups a stream's fingerprint records into one chain per
// engine, its checkpoints in epoch order, and sorts the chains by their
// hash sequences: the canonical pairing key (hashes are fixed-width, so
// this is the order of the sequences' concatenations). It sorts
// st.Fingerprints in place and the chains share its records: at one
// checkpoint an event they are most of a stream's memory.
func ExtractChains(st *Stream) [][]obs.FingerprintRecord {
	fps := st.Fingerprints
	slices.SortFunc(fps, func(a, b obs.FingerprintRecord) int {
		return cmp.Or(cmp.Compare(a.Net, b.Net), cmp.Compare(a.Epoch, b.Epoch))
	})
	var out [][]obs.FingerprintRecord
	for len(fps) > 0 {
		n := 1
		for n < len(fps) && fps[n].Net == fps[0].Net {
			n++
		}
		out = append(out, fps[:n:n])
		fps = fps[n:]
	}
	slices.SortStableFunc(out, func(a, b []obs.FingerprintRecord) int {
		return slices.CompareFunc(a, b, func(x, y obs.FingerprintRecord) int { return strings.Compare(x.Hash, y.Hash) })
	})
	return out
}

// Divergence is the verdict of comparing two fingerprint streams.
type Divergence struct {
	// Match is true when every paired engine's chain is identical end to
	// end and the runs have the same engine count.
	Match bool
	// Engines is the number of paired engines; Note carries structural
	// mismatches (engine count, cadence) that preempt bisection.
	Engines     int
	Note        string
	EpochEvents int64 // the base run's cadence, the cur run's too unless Note says otherwise

	// The earliest divergence across all pairs:
	Pair            int   // pair index (canonical order)
	BaseNet, CurNet int   // the pair's NetIDs in each stream
	Epoch           int64 // first divergent epoch
	Events          int64 // cumulative events at that checkpoint
	// Base and Cur are each side's checkpoint at that epoch; a zero Type
	// marks a side whose run ended before it.
	Base, Cur obs.FingerprintRecord
	// Planes lists the planes whose chains differ at the divergent
	// checkpoint; HostDiffers marks the plane-less (timer) chain.
	Planes      []int32
	HostDiffers bool
	// ContextBase and ContextCur are each side's checkpoints within ±k
	// epochs of the divergent one.
	ContextBase, ContextCur []obs.FingerprintRecord
}

// FindDivergence pairs the two streams' engines canonically and binary-
// searches each pair's checkpoints for the first divergent epoch,
// returning the earliest divergence found (by epoch, then pair index)
// with k checkpoints of context either side.
func FindDivergence(base, cur *Stream, k int) (*Divergence, error) {
	bc := ExtractChains(base)
	cc := ExtractChains(cur)
	if len(bc) == 0 || len(cc) == 0 {
		return nil, fmt.Errorf("report: no fingerprint records (base %d engines, cur %d) — were the runs made with -fingerprint?", len(bc), len(cc))
	}
	d := &Divergence{Engines: len(bc), EpochEvents: bc[0][0].EpochEvents}
	if len(bc) != len(cc) {
		d.Note = fmt.Sprintf("engine count differs: base has %d, cur has %d — the runs did not execute the same simulations", len(bc), len(cc))
		return d, nil
	}
	if be, ce := bc[0][0].EpochEvents, cc[0][0].EpochEvents; be != ce {
		d.Note = fmt.Sprintf("checkpoint cadence differs: base epoch=%d events, cur epoch=%d — rerun with matching -fingerprint-epoch", be, ce)
		return d, nil
	}
	// A chain holds epochs 0, 1, ... in order, so a position is an epoch.
	pair, at := -1, 0
	for i := range bc {
		b, c := bc[i], cc[i]
		// Chains are cumulative: equal checkpoints stay equal until the
		// first divergence, after which every checkpoint differs. That
		// makes "differs at epoch j" monotone in j — binary-searchable.
		// When one run recorded more epochs and the shared prefix
		// matches, the divergence is the first checkpoint only one side
		// has.
		first := sort.Search(min(len(b), len(c)), func(j int) bool { return b[j].Hash != c[j].Hash })
		if first == len(b) && first == len(c) {
			continue // identical end to end
		}
		if pair < 0 || first < at {
			pair, at = i, first
		}
	}
	if d.Match = pair < 0; d.Match {
		return d, nil
	}
	b, c := bc[pair], cc[pair]
	d.Pair, d.BaseNet, d.CurNet = pair, b[0].Net, c[0].Net
	d.Base, d.Cur = recordAt(b, at), recordAt(c, at)
	if d.Base.Type != "" && d.Cur.Type != "" {
		d.Planes, d.HostDiffers = divergentPlanes(d.Base, d.Cur)
	}
	cp := d.Base
	if cp.Type == "" {
		cp = d.Cur
	}
	d.Epoch, d.Events = cp.Epoch, cp.Events
	d.ContextBase, d.ContextCur = window(b, at, k), window(c, at, k)
	return d, nil
}

// recordAt is cps[i], or the zero record past the end of a run.
func recordAt(cps []obs.FingerprintRecord, i int) obs.FingerprintRecord {
	if i < len(cps) {
		return cps[i]
	}
	return obs.FingerprintRecord{}
}

// window is xs[at-k : at+k+1], clipped to xs.
func window(xs []obs.FingerprintRecord, at, k int) []obs.FingerprintRecord {
	lo, hi := max(at-k, 0), min(at+k+1, len(xs))
	if lo >= hi {
		return nil
	}
	return xs[lo:hi]
}

// divergentPlanes names the per-plane chains that differ at a
// checkpoint — the attribution that tells a debugger which plane's event
// order broke first.
func divergentPlanes(b, c obs.FingerprintRecord) (planes []int32, host bool) {
	hashes := map[int32][2]string{} // by plane: base's, cur's
	for side, r := range []obs.FingerprintRecord{b, c} {
		for _, p := range r.Planes {
			h := hashes[p.Plane]
			h[side] = p.Hash
			hashes[p.Plane] = h
		}
	}
	for pl, h := range hashes {
		if h[0] != h[1] {
			planes = append(planes, pl)
		}
	}
	slices.Sort(planes)
	return planes, b.Host != c.Host
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
	fmt.Fprintf(&b, "  global chain: base %s != cur %s\n", hashOr(d.Base), hashOr(d.Cur))
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
	if d.EpochEvents == 1 {
		fmt.Fprintf(&b, "  first divergent event: epoch %d\n", d.Epoch)
	} else {
		fmt.Fprintf(&b, "  last event of the first divergent epoch %d (%d events an epoch):\n", d.Epoch, d.EpochEvents)
	}
	fmt.Fprintf(&b, "    base: %s\n", fmtEvent(d.Base))
	fmt.Fprintf(&b, "    cur:  %s\n", fmtEvent(d.Cur))
	for _, side := range []struct {
		name string
		ctx  []obs.FingerprintRecord
	}{{"base", d.ContextBase}, {"cur", d.ContextCur}} {
		if len(side.ctx) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  context (%s):\n", side.name)
		for _, r := range side.ctx {
			mark := "  "
			if r.Epoch == d.Epoch {
				mark = "->"
			}
			fmt.Fprintf(&b, "    %s epoch=%-6d %s\n", mark, r.Epoch, fmtEvent(r))
		}
	}
	if d.EpochEvents != 1 {
		b.WriteString("  (rerun both with -fingerprint-epoch 1 to name the first divergent event)\n")
	}
	return b.String()
}

func hashOr(r obs.FingerprintRecord) string {
	if r.Type == "" {
		return "(run ended)"
	}
	return r.Hash
}

// fmtEvent renders the event that closed a checkpoint.
func fmtEvent(r obs.FingerprintRecord) string {
	switch {
	case r.Type == "":
		return "(run ended before this checkpoint)"
	case r.Kind == "":
		return fmt.Sprintf("t=%dps (partial checkpoint at the end of the run)", r.TPs)
	case r.Kind == "timer":
		return fmt.Sprintf("t=%dps timer", r.TPs)
	}
	return fmt.Sprintf("t=%dps %s plane=%d link=%d flow=%d seq=%d size=%d",
		r.TPs, r.Kind, r.Plane, r.Link, r.Flow, r.Seq, r.Size)
}
