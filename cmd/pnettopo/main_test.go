package main

import (
	"bytes"
	"strings"
	"testing"
)

const goodStdout = `topology: parallel-homo ft4 2x100G
  hosts: 16   racks: 8   planes: 2   host bandwidth: 200 Gb/s
  nodes: 56   directed links: 192
  plane 0: 20 switches
  plane 1: 20 switches

shortest-path hop distribution (50 sampled pairs):
   2 hops:   2.0%  
   4 hops:  12.0%  ####
   6 hops:  86.0%  ##################################
  mean: 5.680 hops

link-disjoint host-to-host paths: 2 (one per plane)

deployment plans (§6.1):
  options                 host cables  core cables  panel ports    boxes   transceivers
  naive                            32           64            0       20            128
  bundled                          16           32            0       20             64
  bundled+patch-panel              16           32           64       20             64
`

// TestRun: a flag value no topology can be built from is exit 2 and one
// line on stderr that names the flag and what it accepts, with nothing on
// stdout; each of the first three died with a goroutine trace from a
// builder before the builders' preconditions became topo.Check*. The good
// command line's stdout is pinned whole.
func TestRun(t *testing.T) {
	for _, c := range []struct {
		args   string
		code   int
		stdout string
		stderr []string // substrings of the one line
	}{
		{"-k 3", 2, "", []string{"k=3", "even and >= 4"}},
		{"-topo jellyfish -switches 4 -degree 7", 2, "", []string{"degree=7", "[1, switches-1 = 3]"}},
		{"-planes 0", 2, "", []string{"planes=0", "at least 1"}},
		{"-topo mixed -k 4 -planes 1", 2, "", []string{"planes=1", "at least 2"}},
		{"-topo jellyfish -hostsper 0", 2, "", []string{"hostsper=0", "at least 1"}},
		{"-topo nosuch", 2, "", []string{`-topo "nosuch"`, "fattree, jellyfish, mixed"}},
		{"-pairs 0", 2, "", []string{"-pairs", "at least 1"}},
		{"-topo fattree -k 4 -planes 2 -pairs 50", 0, goodStdout, nil},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(strings.Fields(c.args), &stdout, &stderr); code != c.code {
			t.Errorf("pnettopo %s: exit %d, want %d (stderr %q)", c.args, code, c.code, stderr.String())
		}
		if stdout.String() != c.stdout {
			t.Errorf("pnettopo %s: stdout\n%s\nwant\n%s", c.args, stdout.String(), c.stdout)
		}
		msg := stderr.String()
		if c.code == 0 && msg != "" {
			t.Errorf("pnettopo %s: stderr %q on success", c.args, msg)
		}
		if c.code != 0 && (strings.Count(msg, "\n") != 1 || !strings.HasPrefix(msg, "pnettopo: ")) {
			t.Errorf("pnettopo %s: stderr %q, want one line from pnettopo", c.args, msg)
		}
		for _, want := range c.stderr {
			if !strings.Contains(msg, want) {
				t.Errorf("pnettopo %s: stderr %q does not mention %q", c.args, msg, want)
			}
		}
	}
}
