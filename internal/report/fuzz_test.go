package report

import (
	"bytes"
	"errors"
	"testing"

	"pnet/internal/obs"
)

// FuzzStream hammers the JSONL reader and both of its sinks with
// corrupted input: whatever arrives, ReadStream must return nil or one of
// its typed errors, never panic and never an anonymous error the CLI
// can't classify, and the Aggregator must still summarize and render
// whatever prefix it was handed (`pnetstat summary` on a damaged file).
func FuzzStream(f *testing.F) {
	// A per-event journal line and a close-time metric snapshot, kinds
	// earlier binaries wrote and this reader no longer knows: each must be
	// named, not skipped or misread.
	const fpev = `{"type":"fpev","net":0,"epoch":1,"i":0,"kind":"hop","hash":"0123456789abcdef"}` + "\n"
	const metric = `{"type":"metric","name":"flows.completed","kind":"counter","value":1}` + "\n"
	for kind, line := range map[string]string{"fpev": fpev, "metric": metric} {
		var uk *UnknownKindError
		if err := ReadStream(bytes.NewReader([]byte(line)), &Stream{}); !errors.As(err, &uk) || uk.Kind != kind || uk.Line != 1 {
			f.Fatalf("%s line: got %v, want an UnknownKindError for kind %q on line 1", kind, err, kind)
		}
	}
	seeds := []string{
		goodStream,
		"",
		"\n\n\n",
		"not json at all\n",
		`{"type":"flow","id":7`, // cut off mid-record, no newline
		goodStream[:len(goodStream)-30],
		`{"type":"martian","x":1}` + "\n",
		`{"type":""}` + "\n",
		`{"no_type_at_all":true}` + "\n",
		`{"type":"flow","id":"seven"}` + "\n", // wrong field type
		`{"type":"pkt","ev":"warp","t_ps":-1}` + "\n",
		`{"type":"fp","net":0,"epoch":1,"events":32,"epoch_events":32,"hash":"zz"}` + "\n",
		`{"type":"fp","net":0,"epoch":1,"events":32,"epoch_events":0,"hash":"0123456789abcdef","host":"0123456789abcdef"}` + "\n",
		fpev,
		metric,
		// Mixed: valid records, then a schema the reader predates.
		goodStream + `{"type":"fp","net":0,"epoch":0,"events":64,"epoch_events":64,"hash":"0123456789abcdef","host":"0123456789abcdef"}` + "\n" + `{"type":"from_the_future","v":2}` + "\n",
		// Plane ids no engine would write: the fingerprint fold and the
		// per-plane maps must take them as keys, not as slice indices.
		`{"type":"fp","net":-3,"epoch":0,"events":64,"epoch_events":64,"hash":"0123456789abcdef","host":"0123456789abcdef","planes":[{"plane":-1,"hash":"0123456789abcdef"},{"plane":2000000000,"hash":"fedcba9876543210"}]}` + "\n" +
			`{"type":"plane","net":-3,"t_ps":5,"plane":-7,"tx_bytes":9}` + "\n" +
			`{"type":"profile","net":9,"kind":"hop","plane":2000000000,"events":1,"wall_ns":1,"sim_ps":5}` + "\n",
		"\x00\x01\x02",
		`[1,2,3]` + "\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		aggr := NewAggregator()
		for _, sink := range []obs.Sink{&Stream{}, aggr} {
			err := ReadStream(bytes.NewReader(data), sink)
			var pe *ParseError
			var uk *UnknownKindError
			if err != nil && !errors.As(err, &pe) && !errors.As(err, &uk) && !errors.Is(err, ErrEmptyStream) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
		}
		s := aggr.Summarize(Meta{})
		_ = s.String() + s.AttributionString() + s.ProfileString()
	})
}
