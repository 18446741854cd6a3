package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
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
	const accepted = "table, csv, json"
	checkCommandLines(t, []commandLine{
		{name: "table", args: "-format table"},
		{name: "csv", args: "-format csv"},
		{name: "json", args: "-format json"},
		{name: "xml", args: "-exp table1 -format xml -metrics DIR/m.jsonl", wantErr: accepted},
		{name: "upper case", args: "-exp table1 -format JSON -metrics DIR/m.jsonl", wantErr: accepted},
		{name: "empty", args: "-exp table1 -metrics DIR/m.jsonl -format=", wantErr: accepted},
	})
}

// TestValidateBeforeSideEffects: the rejections that used to come after
// the output files were created (or never came at all). The three lines
// that once gave -trace a file of its own are still rejected: -trace takes
// no value now, so the file name is a stray argument.
func TestValidateBeforeSideEffects(t *testing.T) {
	const outputs = " -metrics DIR/m.jsonl -trace -fingerprint -report DIR/r.json"
	checkCommandLines(t, []commandLine{
		{name: "unknown experiment", args: "-exp nosuch" + outputs, wantErr: `unknown experiment "nosuch"`},
		{name: "unknown scale", args: "-exp table1 -scale huge" + outputs, wantErr: `unknown scale "huge"`},
		{name: "negative workers", args: "-exp table1 -workers -1" + outputs, wantErr: "-workers must be >= 0"},
		{name: "bad trace-flow", args: "-exp table1 -trace-flow 1,x" + outputs, wantErr: `-trace-flow: bad flow id "x"`},
		{name: "empty trace-flow list", args: "-exp table1 -trace-flow ,," + outputs, wantErr: "-trace-flow: no flow ids"},
		{name: "trace-flow without trace", args: "-exp table1 -trace-flow 1 -metrics DIR/m.jsonl", wantErr: "-trace-flow requires -trace"},
		{name: "zero sample", args: "-exp table1 -sample 0s" + outputs, wantErr: "-sample must be positive"},
		{name: "bad chaos script", args: "-exp table1 -chaos nonsense" + outputs, wantErr: "chaos"},
		{name: "chaos recovery past sim time", args: "-exp faults -chaos link:0@2000h+2000h" + outputs, wantErr: "beyond sim time's range"},
		{name: "chaos flap past sim time", args: "-exp faults -chaos flap:0@2000h*3/2000h" + outputs, wantErr: "beyond sim time's range"},
		{name: "chaos outside faults", args: "-exp table1 -chaos plane:0@10ms+20ms" + outputs, wantErr: "-chaos scripts the faults experiment"},
		{name: "chaos with every experiment", args: "-exp all -chaos plane:0@10ms+20ms" + outputs, wantErr: "requires -exp faults"},
		{name: "chaos plane the faults networks lack", args: "-exp faults -chaos plane:9@1ms+1ms" + outputs,
			wantErr: `faults network "serial" (`},
		{name: "chaos switch the faults networks lack", args: "-exp faults -chaos switch:99999@1ms" + outputs,
			wantErr: "node 99999 out of range"},
		{name: "chaos switch only the jellyfish lacks", args: "-exp faults -scale full -chaos switch:200@1ms" + outputs,
			wantErr: `faults network "parallel heterogeneous" (parallel-hetero jf32-4 2x100G): chaos: t=1.000ms switch:200 switch-down: node 200 out of range [0,192)`},
		{name: "chaos link the faults networks lack", args: "-exp faults -scale full -chaos link:99999@1ms+1ms" + outputs,
			wantErr: "link 99999 out of range"},
		{name: "metrics and trace share a file", args: "-exp table1 -metrics DIR/x.jsonl -trace DIR/x.jsonl",
			wantErr: "unexpected argument"},
		{name: "metrics and report share a file", args: "-exp table1 -metrics DIR/x -report DIR/./x",
			wantErr: "-metrics and -report both write to"},
		{name: "trace and report share a file", args: "-exp table1 -report DIR/x -trace DIR/x",
			wantErr: "unexpected argument"},
		{name: "two streams on stdout", args: "-exp table1 -metrics - -trace -",
			wantErr: `unexpected argument "-"`},
		{name: "stray argument", args: "stray -exp table1", wantErr: `unexpected argument "stray"`},
		{name: "trace file of old", args: "-trace DIR/t.jsonl -exp fig6c", wantErr: "-trace no file"},
		{name: "trace without metrics", args: "-exp table1 -trace -report DIR/r.json", wantErr: "-trace adds packet records to the metrics stream"},
		{name: "trace with metrics", args: "-trace -trace-flow 3 -metrics DIR/m.jsonl"},
		{name: "unknown experiment with -list", args: "-list -exp nosuch", wantErr: "unknown experiment"},
	})
}
