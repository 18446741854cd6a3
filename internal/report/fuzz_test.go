package report

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pnet/internal/obs"
)

// FuzzStream hammers the JSONL reader and every sink pnetstat reads a
// stream into with corrupted input: whatever arrives, ReadStream must
// return nil or one of its typed errors, never panic and never an
// anonymous error the CLI can't classify; the Aggregator must still
// summarize and render whatever prefix it was handed (`pnetstat summary`
// on a damaged file), and divergence's and export-trace's passes must take
// it without a panic.
func FuzzStream(f *testing.F) {
	// A per-event journal line, a packet event, a close-time metric
	// snapshot and an event-loop profile bin, kinds earlier binaries wrote
	// and this reader no longer knows: each must be named, not skipped or
	// misread.
	const fpev = `{"type":"fpev","net":0,"epoch":1,"i":0,"kind":"hop","hash":"0123456789abcdef"}` + "\n"
	const pkt = `{"type":"pkt","net":0,"ev":"enqueue","t_ps":1280,"link":3,"plane":0,"flow":7,"seq":41,"size":1500}` + "\n"
	const metric = `{"type":"metric","name":"flows.completed","kind":"counter","value":1}` + "\n"
	const profile = `{"type":"profile","net":0,"kind":"hop","plane":0,"events":1,"wall_ns":1,"sim_ps":5}` + "\n"
	for kind, line := range map[string]string{"fpev": fpev, "pkt": pkt, "metric": metric, "profile": profile} {
		var uk *UnknownKindError
		if err := ReadStream(bytes.NewReader([]byte(line)), discard{}); !errors.As(err, &uk) || uk.Kind != kind || uk.Line != 1 {
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
		`{"id":7,"fct_s":0.002,"type":"flow"}` + "\n",    // type key not first
		`{"type":"link","link":3,"type":"fault"}` + "\n", // type key repeated: the last counts
		pkt,
		`{"type":"fp","net":0,"epoch":1,"events":32,"epoch_events":32,"hash":"zz"}` + "\n",
		`{"type":"fp","net":0,"epoch":1,"events":32,"epoch_events":0,"hash":"0123456789abcdef","host":"0123456789abcdef"}` + "\n",
		fpev,
		metric,
		// Mixed: valid records, then a schema the reader predates.
		goodStream + `{"type":"fp","net":0,"epoch":0,"events":64,"epoch_events":64,"hash":"0123456789abcdef","host":"0123456789abcdef"}` + "\n" + `{"type":"from_the_future","v":2}` + "\n",
		// Plane ids no engine would write: the per-plane maps must take
		// them as keys, not as slice indices. The fingerprint record
		// carries the host and planes keys of older streams.
		`{"type":"fp","net":-3,"epoch":0,"events":64,"epoch_events":64,"hash":"0123456789abcdef","host":"0123456789abcdef","planes":[{"plane":-1,"hash":"0123456789abcdef"},{"plane":2000000000,"hash":"fedcba9876543210"}]}` + "\n" +
			`{"type":"plane","net":-3,"t_ps":5,"plane":-7,"tx_bytes":9}` + "\n" +
			`{"type":"fault","net":9,"t_ps":5,"event":"inject","target":"link:2","plane":2000000000}` + "\n",
		"\x00\x01\x02",
		`[1,2,3]` + "\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		aggr := NewAggregator()
		read := func(sink obs.Sink) {
			err := ReadStream(bytes.NewReader(data), sink)
			var pe *ParseError
			var uk *UnknownKindError
			if err != nil && !errors.As(err, &pe) && !errors.As(err, &uk) && !errors.Is(err, ErrEmptyStream) {
				t.Fatalf("untyped error %T: %v", err, err)
			}
		}
		read(aggr)
		s := aggr.Summarize(Meta{})
		renderAll(s)
		read(&chains{byNet: map[int]*chain{}})
		read(&side{at: 2, lo: 0, hi: 5})
		read(&flowOf{id: 3})
		tw := &traceWriter{pids: map[netPlane]int64{}, w: bufio.NewWriter(io.Discard)}
		read(tw)
		tw.close()
	})
}

// FuzzLoadRun: whatever bytes a run file holds, LoadRun must never panic,
// whether they read as a summary JSON or as a metrics stream; any error
// names the file, and the summary it returns (a stream's prefix beside a
// bad line) renders.
func FuzzLoadRun(f *testing.F) {
	summary, err := json.Marshal(sampleSummary())
	if err != nil {
		f.Fatal(err)
	}
	for _, s := range []string{string(summary), goodStream, "", `{"schema_version":99}`, `{"schema_version":1,"fct_s":7}`, "{\n"} {
		f.Add([]byte(s))
	}
	path := filepath.Join(f.TempDir(), "run")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := LoadRun(path, Meta{})
		if err != nil && !strings.Contains(err.Error(), path) {
			t.Fatalf("error does not name the file: %v", err)
		}
		renderAll(s)
	})
}

// renderAll renders every view the summary holds.
func renderAll(s RunSummary) {
	_ = s.String()
	if s.Attribution != nil {
		_ = s.AttributionString()
	}
}
