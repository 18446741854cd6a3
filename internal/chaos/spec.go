package chaos

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"pnet/internal/graph"
	"pnet/internal/sim"
)

// SpecSyntax documents the -chaos flag grammar for CLI help text.
const SpecSyntax = `semicolon-separated fault entries:
  link:ID@T[+D]     link ID down at T, back up after D (omit D = rest of run)
  switch:ID@T[+D]   every link of switch ID down at T
  plane:ID@T[+D]    whole dataplane ID down at T
  flap:ID@T*N/P     link ID flaps N cycles of period P starting at T
  poisson:mttf=D,mttr=D,until=T[,plane=ID]
                    seeded exponential up/down process on every link
                    (or just plane ID's links) until T
T and D are Go durations, e.g. "30ms" or "1.5ms" (sim time).`

// Spec is a parsed -chaos flag: a topology-independent fault script that
// Build materializes into a Schedule for a concrete graph.
type Spec struct {
	entries []specEntry
	src     string
}

type specEntry struct {
	kind    string // "link" | "switch" | "plane" | "flap" | "poisson"
	id      int64
	at, dur sim.Time
	cycles  int
	period  sim.Time
	mttf    sim.Time
	mttr    sim.Time
	until   sim.Time
	plane   int64 // poisson scope; -1 = all links
}

// String returns the spec's source text.
func (s *Spec) String() string {
	if s == nil {
		return ""
	}
	return s.src
}

// ParseSpec parses a -chaos flag value (see SpecSyntax). An empty string
// yields a nil Spec and no error.
func ParseSpec(text string) (*Spec, error) {
	text = strings.TrimSpace(text)
	if text == "" {
		return nil, nil
	}
	spec := &Spec{src: text}
	for _, part := range strings.Split(text, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		e, err := parseEntry(part)
		if err != nil {
			return nil, fmt.Errorf("chaos spec %q: %w", part, err)
		}
		spec.entries = append(spec.entries, e)
	}
	if len(spec.entries) == 0 {
		return nil, fmt.Errorf("chaos spec %q: no entries", text)
	}
	return spec, nil
}

func parseEntry(s string) (specEntry, error) {
	kind, rest, ok := strings.Cut(s, ":")
	if !ok {
		return specEntry{}, fmt.Errorf("missing ':' (want kind:...)")
	}
	switch kind {
	case "link", "switch", "plane":
		return parseTimed(kind, rest)
	case "flap":
		return parseFlap(rest)
	case "poisson":
		return parsePoisson(rest)
	}
	return specEntry{}, fmt.Errorf("unknown kind %q (want link|switch|plane|flap|poisson)", kind)
}

// parseTimed handles "ID@T" and "ID@T+D".
func parseTimed(kind, s string) (specEntry, error) {
	idStr, tStr, ok := strings.Cut(s, "@")
	if !ok {
		return specEntry{}, fmt.Errorf("missing '@' (want %s:ID@T)", kind)
	}
	id, err := strconv.ParseInt(idStr, 10, 32)
	if err != nil {
		return specEntry{}, fmt.Errorf("bad id %q: %v", idStr, err)
	}
	e := specEntry{kind: kind, id: id}
	atStr, durStr, hasDur := strings.Cut(tStr, "+")
	if e.at, err = parseSimTime(atStr); err != nil {
		return specEntry{}, err
	}
	if hasDur {
		if e.dur, err = parseSimTime(durStr); err != nil {
			return specEntry{}, err
		}
		if e.dur <= 0 {
			return specEntry{}, fmt.Errorf("duration must be positive, got %q", durStr)
		}
		if e.dur > math.MaxInt64-e.at {
			return specEntry{}, beyondRange(tStr) // the recovery at T+D would wrap
		}
	}
	return e, nil
}

// parseFlap handles "ID@T*N/P".
func parseFlap(s string) (specEntry, error) {
	idStr, rest, ok := strings.Cut(s, "@")
	if !ok {
		return specEntry{}, fmt.Errorf("missing '@' (want flap:ID@T*N/P)")
	}
	id, err := strconv.ParseInt(idStr, 10, 32)
	if err != nil {
		return specEntry{}, fmt.Errorf("bad id %q: %v", idStr, err)
	}
	atStr, cyc, ok := strings.Cut(rest, "*")
	if !ok {
		return specEntry{}, fmt.Errorf("missing '*' (want flap:ID@T*N/P)")
	}
	nStr, pStr, ok := strings.Cut(cyc, "/")
	if !ok {
		return specEntry{}, fmt.Errorf("missing '/' (want flap:ID@T*N/P)")
	}
	e := specEntry{kind: "flap", id: id}
	if e.at, err = parseSimTime(atStr); err != nil {
		return specEntry{}, err
	}
	if e.cycles, err = strconv.Atoi(nStr); err != nil || e.cycles <= 0 {
		return specEntry{}, fmt.Errorf("bad cycle count %q", nStr)
	}
	if e.period, err = parseSimTime(pStr); err != nil {
		return specEntry{}, err
	}
	if e.period <= 0 {
		return specEntry{}, fmt.Errorf("period must be positive, got %q", pStr)
	}
	// The last recovery is at T + (N-1)·P + P/2 (Schedule.Flap).
	room := math.MaxInt64 - e.at - e.period/2
	if room < 0 || sim.Time(e.cycles-1) > room/e.period {
		return specEntry{}, beyondRange(rest)
	}
	return e, nil
}

// parsePoisson handles "mttf=D,mttr=D,until=T[,plane=ID]".
func parsePoisson(s string) (specEntry, error) {
	e := specEntry{kind: "poisson", plane: -1}
	for _, kv := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return specEntry{}, fmt.Errorf("bad key=value %q", kv)
		}
		var err error
		switch key {
		case "mttf":
			e.mttf, err = parseSimTime(val)
		case "mttr":
			e.mttr, err = parseSimTime(val)
		case "until":
			e.until, err = parseSimTime(val)
		case "plane":
			e.plane, err = strconv.ParseInt(val, 10, 32)
		default:
			err = fmt.Errorf("unknown key %q", key)
		}
		if err != nil {
			return specEntry{}, err
		}
	}
	if e.mttf <= 0 || e.mttr <= 0 || e.until <= 0 {
		return specEntry{}, fmt.Errorf("poisson needs positive mttf, mttr, until")
	}
	return e, nil
}

func parseSimTime(s string) (sim.Time, error) {
	d, err := time.ParseDuration(strings.TrimSpace(s))
	if err != nil {
		return 0, fmt.Errorf("bad duration %q: %v", s, err)
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %q", s)
	}
	// sim.Time counts picoseconds: past ~106 days the product wraps.
	if d > time.Duration(math.MaxInt64/int64(sim.Nanosecond)) {
		return 0, beyondRange(s)
	}
	return sim.Time(d.Nanoseconds()) * sim.Nanosecond, nil
}

// beyondRange is the error for a time, or a sum of times, that sim.Time
// cannot hold: the engine would refuse the wrapped event as in the past.
func beyondRange(s string) error {
	return fmt.Errorf("duration %q is beyond sim time's range (about 106 days)", s)
}

// Build materializes the spec for a concrete graph. Poisson entries draw
// from the given seed; everything else is literal. Target validity
// (link/switch/plane existence) is the schedule's Check.
func (s *Spec) Build(g *graph.Graph, seed int64) Schedule {
	var sched Schedule
	if s == nil {
		return sched
	}
	for i, e := range s.entries {
		switch e.kind {
		case "link":
			sched.LinkFault(graph.LinkID(e.id), e.at, e.dur)
		case "switch":
			sched.SwitchCrash(graph.NodeID(e.id), e.at, e.dur)
		case "plane":
			sched.PlaneOutage(int32(e.id), e.at, e.dur)
		case "flap":
			sched.Flap(graph.LinkID(e.id), e.at, e.period, e.cycles)
		case "poisson":
			var links []graph.LinkID
			for l := 0; l < g.NumLinks(); l++ {
				if e.plane < 0 || g.Link(graph.LinkID(l)).Plane == int32(e.plane) {
					links = append(links, graph.LinkID(l))
				}
			}
			// Offset the seed per entry so two poisson entries do not
			// replay the same draws.
			sched.Poisson(seed+int64(i), links, e.mttf, e.mttr, e.until)
		}
	}
	sched.sortEvents()
	return sched
}
