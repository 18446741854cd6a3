package main

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"pnet/internal/exp"
)

// commandLine is one row of the tables below: arguments for run, and the
// stderr text a rejection must carry ("" = the line is accepted). Every
// occurrence of DIR in args is replaced by the case's scratch directory.
type commandLine struct {
	name    string
	args    string
	wantErr string
}

// checkCommandLines drives each line through run, the function main
// calls. Accepted lines name no experiment, so they validate, list and
// exit 0; rejected lines must exit 2 with a one-line message and, the
// point of validating first, leave no file behind.
func checkCommandLines(t *testing.T, lines []commandLine) {
	for _, c := range lines {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			args := strings.Fields(strings.ReplaceAll(c.args, "DIR", dir))
			var stdout, stderr bytes.Buffer
			code := run(args, &stdout, &stderr)
			left, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(left) != 0 {
				t.Errorf("%d file(s) created, first %q: nothing may be opened before the run starts", len(left), left[0].Name())
			}
			if c.wantErr == "" {
				if code != 0 || !strings.Contains(stdout.String(), "experiments:") {
					t.Fatalf("exit %d, stderr %q: want the line accepted", code, stderr.String())
				}
				return
			}
			msg := stderr.String()
			if code != 2 {
				t.Fatalf("exit %d, stderr %q: want exit 2", code, msg)
			}
			if !strings.Contains(msg, c.wantErr) {
				t.Errorf("stderr %q does not contain %q", msg, c.wantErr)
			}
			if !strings.HasPrefix(msg, "pnetbench: ") || strings.Count(msg, "\n") != 1 {
				t.Errorf("message is not one pnetbench: line: %q", msg)
			}
			if stdout.Len() != 0 {
				t.Errorf("rejected line wrote to stdout: %q", stdout.String())
			}
		})
	}
}

func TestValidateFingerprintFlags(t *testing.T) {
	checkCommandLines(t, []commandLine{
		{name: "off by default"},
		{name: "fingerprint with metrics", args: "-fingerprint -metrics DIR/m.jsonl"},
		{name: "fingerprint with report", args: "-fingerprint -report DIR/r.json"},
		{name: "explicit epoch", args: "-fingerprint -fingerprint-epoch 1024 -metrics DIR/m.jsonl"},
		{name: "epoch of one event", args: "-fingerprint -fingerprint-epoch 1 -metrics DIR/m.jsonl"},
		{name: "zero epoch", args: "-exp table1 -fingerprint -fingerprint-epoch 0 -metrics DIR/m.jsonl",
			wantErr: "-fingerprint-epoch must be positive"},
		{name: "negative epoch", args: "-exp table1 -fingerprint -fingerprint-epoch -5 -metrics DIR/m.jsonl",
			wantErr: "-fingerprint-epoch must be positive"},
		{name: "epoch without fingerprint", args: "-exp table1 -fingerprint-epoch 1024 -metrics DIR/m.jsonl",
			wantErr: "-fingerprint-epoch requires -fingerprint"},
		{name: "fingerprint without sink", args: "-exp table1 -fingerprint",
			wantErr: "-fingerprint needs a sink"},
	})
}

func TestValidateFormat(t *testing.T) {
	const accepted = "table, json"
	checkCommandLines(t, []commandLine{
		{name: "table", args: "-format table"},
		{name: "csv", args: "-format csv", wantErr: accepted},
		{name: "json", args: "-format json"},
		{name: "xml", args: "-exp table1 -format xml -metrics DIR/m.jsonl", wantErr: accepted},
		{name: "upper case", args: "-exp table1 -format JSON -metrics DIR/m.jsonl", wantErr: accepted},
		{name: "empty", args: "-exp table1 -metrics DIR/m.jsonl -format=", wantErr: accepted},
	})
}

// TestValidateBeforeSideEffects: the rejections that used to come after
// the output files were created (or never came at all). The lines that
// once gave -trace a file of its own, or the -trace switch its packet
// records, are still rejected: -trace and -trace-flow are gone, so they
// are unknown flags.
func TestValidateBeforeSideEffects(t *testing.T) {
	const outputs = " -metrics DIR/m.jsonl -fingerprint -report DIR/r.json"
	checkCommandLines(t, []commandLine{
		{name: "unknown experiment", args: "-exp nosuch" + outputs, wantErr: `unknown experiment "nosuch"`},
		{name: "unknown scale", args: "-exp table1 -scale huge" + outputs, wantErr: `unknown scale "huge"`},
		{name: "negative workers", args: "-exp table1 -workers -1" + outputs, wantErr: "-workers must be >= 0"},
		{name: "bad trace-flow", args: "-exp table1 -trace-flow 1,x" + outputs, wantErr: "flag provided but not defined: -trace-flow"},
		{name: "empty trace-flow list", args: "-exp table1 -trace-flow ,," + outputs, wantErr: "flag provided but not defined: -trace-flow"},
		{name: "trace-flow without trace", args: "-exp table1 -trace-flow 1 -metrics DIR/m.jsonl", wantErr: "flag provided but not defined: -trace-flow"},
		{name: "zero sample", args: "-exp table1 -sample 0s" + outputs, wantErr: "flag provided but not defined: -sample"},
		{name: "sample interval", args: "-sample 1us", wantErr: "flag provided but not defined: -sample"},
		{name: "chaos script", args: "-exp faults -chaos plane:0@10ms" + outputs, wantErr: "flag provided but not defined: -chaos"},
		{name: "chaos help", args: "-chaos help", wantErr: "flag provided but not defined: -chaos"},
		{name: "metrics and trace share a file", args: "-exp table1 -metrics DIR/x.jsonl -trace DIR/x.jsonl",
			wantErr: "flag provided but not defined: -trace"},
		{name: "metrics and report share a file", args: "-exp table1 -metrics DIR/x -report DIR/./x",
			wantErr: "-metrics and -report both write to"},
		{name: "trace and report share a file", args: "-exp table1 -report DIR/x -trace DIR/x",
			wantErr: "flag provided but not defined: -trace"},
		{name: "two streams on stdout", args: "-exp table1 -metrics - -trace -",
			wantErr: "flag provided but not defined: -trace"},
		{name: "stray argument", args: "stray -exp table1", wantErr: `unexpected argument "stray"`},
		{name: "trace file of old", args: "-trace DIR/t.jsonl -exp fig6c", wantErr: "flag provided but not defined: -trace"},
		{name: "trace without metrics", args: "-exp table1 -trace -report DIR/r.json", wantErr: "flag provided but not defined: -trace"},
		{name: "trace with metrics", args: "-trace -trace-flow 3 -metrics DIR/m.jsonl", wantErr: "flag provided but not defined: -trace"},
		{name: "unknown experiment with -list", args: "-list -exp nosuch", wantErr: "flag provided but not defined: -list"},
		{name: "list flag", args: "-list", wantErr: "flag provided but not defined: -list"},
	})
}

// TestStdoutHoldsTablesAlone: a table-format run prints the table and
// nothing else on stdout; its wall time goes to stderr, and the -time
// knob that once kept it off stdout is gone.
func TestStdoutHoldsTablesAlone(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-exp", "fig13a"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	e, _ := exp.ByID("fig13a")
	if want := e.Run(exp.Params{Scale: exp.ScaleSmall, Seed: 1}).String() + "\n"; stdout.String() != want {
		t.Errorf("stdout is not the table alone:\n%s\nwant:\n%s", stdout.String(), want)
	}
	if !strings.Contains(stderr.String(), "pnetbench: fig13a in ") {
		t.Errorf("stderr %q does not give fig13a's wall time", stderr.String())
	}
	checkCommandLines(t, []commandLine{
		{name: "time flag", args: "-exp table1 -time=false", wantErr: "flag provided but not defined: -time"},
	})
}
