package chaos

import (
	"strings"
	"testing"
)

// FuzzParseSpec: whatever `pnetbench -chaos` is given, ParseSpec returns
// a spec or an error that names the offending text, never a panic; and a
// spec it accepts must build against a real graph without one (Build
// trusts the ranges the parser enforced: positive durations, periods and
// cycle counts). Seeded from the TestParseSpec* tables.
func FuzzParseSpec(f *testing.F) {
	for _, s := range []string{
		"plane:1@30ms; link:2@10ms+5ms; flap:3@1ms*2/500us",
		"poisson:mttf=100us,mttr=10us,until=1ms,plane=1",
		"switch:2@1ms+1ms",
		"", ";;", "gibberish", "warp:1@1ms",
		"link:abc@1ms", "link:1", "switch:1", "link:1@xx", "link:1@-1ms", "link:1@1ms+0ms",
		"flap:1@1ms", "flap:1@1ms*2", "flap:1@1ms*0/1ms", "flap:1@1ms*2/0ms",
		"poisson:junk", "poisson:mttf=1ms", "poisson:mttf=1ms,mttr=1ms,until=1ms,bogus=2",
		"poisson:mttf=1ns,mttr=1ns,until=1us",
		"link:1@2562047h", "link:1@2561h", // around sim.Time's picosecond range
		"link:0@2000h+2000h", "flap:0@2000h*3/2000h", // each term fits, the sum does not
		"poisson:mttf=2500h,mttr=1ns,until=1us", "poisson:mttf=1ns,mttr=2500h,until=2500h", // nor does a long draw
	} {
		f.Add(s)
	}
	_, _, g := twoPlane()
	f.Fuzz(func(t *testing.T, text string) {
		spec, err := ParseSpec(text)
		if err != nil {
			if spec != nil || !strings.HasPrefix(err.Error(), "chaos spec ") {
				t.Fatalf("ParseSpec(%q) = %v, %v: want a nil spec and an error naming the text", text, spec, err)
			}
			return
		}
		if spec == nil {
			if strings.TrimSpace(text) != "" {
				t.Fatalf("ParseSpec(%q) = nil, nil for a non-empty flag", text)
			}
			return
		}
		if spec.String() != strings.TrimSpace(text) {
			t.Fatalf("ParseSpec(%q).String() = %q", text, spec.String())
		}
		// Flap cycle counts and Poisson rates are the caller's to bound;
		// keep the fuzzer's own schedules small.
		for _, e := range spec.entries {
			if e.cycles > 1000 || (e.kind == "poisson" && e.until/e.mttr > 1000) {
				return
			}
		}
		// Sorted from a non-negative first event on: a sum of times that
		// wrapped sim.Time would sit at the front, and the engine panics
		// on an event in the past.
		sched := spec.Build(g, 1)
		for i, e := range sched.Events {
			if e.At < 0 || (i > 0 && e.At < sched.Events[i-1].At) {
				t.Fatalf("ParseSpec(%q).Build: event %d of %d in the past or out of order: %v", text, i, len(sched.Events), e)
			}
		}
	})
}
