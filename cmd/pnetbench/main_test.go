package main

import (
	"strings"
	"testing"
)

func TestValidateFingerprintFlags(t *testing.T) {
	cases := []struct {
		name        string
		fingerprint bool
		epoch       int64
		epochSet    bool
		journal     string
		metrics     string
		report      string
		wantErr     string // "" = valid
	}{
		{name: "off by default"},
		{name: "fingerprint with metrics", fingerprint: true, metrics: "m.jsonl"},
		{name: "fingerprint with report", fingerprint: true, report: "r.json"},
		{name: "explicit epoch", fingerprint: true, epoch: 1024, epochSet: true, metrics: "m.jsonl"},
		{name: "journal with fingerprint", fingerprint: true, journal: "j.jsonl", metrics: "m.jsonl"},
		{name: "zero epoch", fingerprint: true, epoch: 0, epochSet: true, metrics: "m.jsonl",
			wantErr: "-fingerprint-epoch must be positive"},
		{name: "negative epoch", fingerprint: true, epoch: -5, epochSet: true, metrics: "m.jsonl",
			wantErr: "-fingerprint-epoch must be positive"},
		{name: "epoch without fingerprint", epoch: 1024, epochSet: true, metrics: "m.jsonl",
			wantErr: "-fingerprint-epoch requires -fingerprint"},
		{name: "journal without fingerprint", journal: "j.jsonl",
			wantErr: "-fingerprint-journal requires -fingerprint"},
		{name: "fingerprint without sink", fingerprint: true,
			wantErr: "-fingerprint needs a sink"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := validateFingerprintFlags(c.fingerprint, c.epoch, c.epochSet, c.journal, c.metrics, c.report)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error containing %q, got nil", c.wantErr)
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Errorf("error %q does not contain %q", err, c.wantErr)
			}
			if strings.Contains(err.Error(), "\n") {
				t.Errorf("error is not one line: %q", err)
			}
		})
	}
}

func TestValidateFormat(t *testing.T) {
	for format, ok := range map[string]bool{"table": true, "csv": true, "json": true, "xml": false, "": false, "JSON": false} {
		err := validateFormat(format)
		if (err == nil) != ok {
			t.Errorf("-format %q: err = %v, want accepted = %v", format, err, ok)
		}
		if err != nil && !strings.Contains(err.Error(), "table, csv, json") {
			t.Errorf("-format %q: error does not list the accepted values: %v", format, err)
		}
	}
}
