package report

import (
	"cmp"
	"errors"
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

// chain is one engine's cadence and checkpoint global hashes, by epoch.
type chain struct {
	net         int
	epochEvents int64
	hashes      []uint64
}

// chains is divergence's first pass over a stream: one chain per engine,
// and the first checkpoint that does not extend its engine's chain.
type chains struct {
	discard
	byNet map[int]*chain
	err   error
}

func (c *chains) Fingerprint(r obs.FingerprintRecord) {
	ch := c.byNet[r.Net]
	if ch == nil {
		ch = &chain{net: r.Net, epochEvents: r.EpochEvents}
		c.byNet[r.Net] = ch
	}
	if r.Epoch != int64(len(ch.hashes)) && c.err == nil {
		c.err = fmt.Errorf("fingerprint net %d: epoch %d after %d checkpoints", r.Net, r.Epoch, len(ch.hashes))
	}
	h, _ := obs.ParseHash(r.Hash) // ReadStream has validated it
	ch.hashes = append(ch.hashes, h)
}

// readChains reads the stream at path for its chains, sorted by hash
// sequence (as their fixed-width hex would sort), then by net.
func readChains(path string) ([]*chain, error) {
	c := chains{byNet: map[int]*chain{}}
	if err := readStreamPath(path, &c); err != nil {
		return nil, err
	}
	if c.err != nil {
		return nil, fmt.Errorf("%s: %w", path, c.err)
	}
	out := make([]*chain, 0, len(c.byNet))
	for _, ch := range c.byNet {
		out = append(out, ch)
	}
	slices.SortFunc(out, func(a, b *chain) int {
		return cmp.Or(slices.Compare(a.hashes, b.hashes), cmp.Compare(a.net, b.net))
	})
	return out, nil
}

// side is the second pass over one diverged stream, in engine net: the
// checkpoint of epoch at and those within [lo, hi], and the record of the
// flow whose event closed the checkpoint at when that record follows it.
type side struct {
	discard
	net        int
	at, lo, hi int64
	cp         obs.FingerprintRecord
	cps        []obs.FingerprintRecord
	flow       obs.FlowRecord
}

func (s *side) Fingerprint(r obs.FingerprintRecord) {
	if r.Net == s.net && r.Epoch >= s.lo && r.Epoch <= s.hi {
		s.cps = append(s.cps, r)
	}
	if r.Net == s.net && r.Epoch == s.at {
		s.cp = r
	}
}

func (s *side) Flow(r obs.FlowRecord) {
	if s.flow.Type == "" && s.cp.Flow > 0 && r.Net == s.net && r.ID == s.cp.Flow {
		s.flow = r
	}
}

// closingFlow returns the record of the flow whose event closed s's
// checkpoint (a zero Type: none). The second pass has it when it followed
// the checkpoint; otherwise the stream at path is read once more for it.
func closingFlow(path string, s *side) (obs.FlowRecord, error) {
	if s.flow.Type != "" || s.cp.Flow <= 0 {
		return s.flow, nil
	}
	f := &flowOf{net: s.net, id: s.cp.Flow}
	err := readStreamPath(path, f)
	return f.rec, err
}

// flowOf is a pass for the first record of flow id in engine net.
type flowOf struct {
	discard
	net int
	id  int64
	rec obs.FlowRecord
}

func (f *flowOf) Flow(r obs.FlowRecord) {
	if f.rec.Type == "" && r.Net == f.net && r.ID == f.id {
		f.rec = r
	}
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
	// Base and Cur are each side's checkpoint at that epoch, each naming
	// the event that closed it and that event's plane; a zero Type marks
	// a side whose run ended before it.
	Base, Cur obs.FingerprintRecord
	// ContextBase and ContextCur are each side's checkpoints within ±k
	// epochs of the divergent one.
	ContextBase, ContextCur []obs.FingerprintRecord
	// BaseFlow and CurFlow are each side's record of the closing event's
	// flow, in its engine (a zero Type: none).
	BaseFlow, CurFlow obs.FlowRecord
}

// FindDivergence pairs the engines of the metrics streams at basePath and
// curPath canonically and binary-searches each pair's checkpoints for the
// first divergent epoch, returning the earliest divergence found (by
// epoch, then pair index) with k ≥ 0 checkpoints of context either side.
// A first pass keeps one global hash per checkpoint; only diverged runs
// are read again, for the pair's context and closing events, and a
// third time only for a closing event's flow whose record came before its
// checkpoint.
func FindDivergence(basePath, curPath string, k int) (*Divergence, error) {
	bc, err := readChains(basePath)
	if err != nil {
		return nil, err
	}
	cc, err := readChains(curPath)
	if err != nil {
		return nil, err
	}
	if len(bc) == 0 || len(cc) == 0 {
		return nil, fmt.Errorf("report: no fingerprint records (base %d engines, cur %d) — were the runs made with -fingerprint?", len(bc), len(cc))
	}
	d := &Divergence{Engines: len(bc), EpochEvents: bc[0].epochEvents}
	if len(bc) != len(cc) {
		d.Note = fmt.Sprintf("engine count differs: base has %d, cur has %d — the runs did not execute the same simulations", len(bc), len(cc))
		return d, nil
	}
	if be, ce := bc[0].epochEvents, cc[0].epochEvents; be != ce {
		d.Note = fmt.Sprintf("checkpoint cadence differs: base epoch=%d events, cur epoch=%d — rerun with matching -fingerprint-epoch", be, ce)
		return d, nil
	}
	pair, at := -1, 0
	for i := range bc {
		b, c := bc[i].hashes, cc[i].hashes
		// Chains are cumulative: equal checkpoints stay equal until the
		// first divergence, after which every checkpoint differs. That
		// makes "differs at epoch j" monotone in j — binary-searchable.
		// When one run recorded more epochs and the shared prefix
		// matches, the divergence is the first checkpoint only one side
		// has.
		first := sort.Search(min(len(b), len(c)), func(j int) bool { return b[j] != c[j] })
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
	d.Pair, d.BaseNet, d.CurNet = pair, bc[pair].net, cc[pair].net
	lo, hi := int64(at-max(k, 0)), int64(at+max(k, 0))
	base := &side{net: d.BaseNet, at: int64(at), lo: lo, hi: hi}
	cur := &side{net: d.CurNet, at: int64(at), lo: lo, hi: hi}
	if err := errors.Join(readStreamPath(basePath, base), readStreamPath(curPath, cur)); err != nil {
		return nil, err
	}
	d.Base, d.Cur, d.ContextBase, d.ContextCur = base.cp, cur.cp, base.cps, cur.cps
	cp := d.Base
	if cp.Type == "" {
		cp = d.Cur
	}
	d.Epoch, d.Events = cp.Epoch, cp.Events

	// The closing events' flows, which suffice for orientation.
	if d.BaseFlow, err = closingFlow(basePath, base); err != nil {
		return nil, err
	}
	if d.CurFlow, err = closingFlow(curPath, cur); err != nil {
		return nil, err
	}
	return d, nil
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
	for i, f := range []obs.FlowRecord{d.BaseFlow, d.CurFlow} {
		if f.Type == "" {
			continue
		}
		fmt.Fprintf(&b, "  flow %d (%s): %s %d bytes fct=%.3gs", f.ID, [2]string{"base", "cur"}[i], f.Transport, f.Bytes, f.FCT)
		for _, sp := range f.Spans {
			fmt.Fprintf(&b, " %s[p%d]=%dps", sp.Component, sp.Plane, sp.Ps)
		}
		b.WriteByte('\n')
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
