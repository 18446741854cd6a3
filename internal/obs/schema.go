package obs

// This file is the single source of truth for every JSONL record shape
// the telemetry streams emit. internal/report decodes streams with these
// same structs, so a field added or renamed here changes writer and
// reader together — schema drift between the two is a compile error, not
// a silent mis-parse.
//
// Every line in a metrics stream carries a "type" discriminator (one of
// the Kind* constants).

import (
	"fmt"
	"strconv"

	"pnet/internal/sim"
)

// Record type discriminators, the "type" field of every JSONL line.
const (
	KindLink        = "link"
	KindPlane       = "plane"
	KindEngine      = "engine"
	KindFlow        = "flow"
	KindSolver      = "solver"
	KindPacket      = "pkt"
	KindFault       = "fault"
	KindProfile     = "profile"
	KindFingerprint = "fp"
)

// LinkRecord is one active link's state at one sampling instant. Util is
// busy transmission time over the sampling interval; TxBytes and Drops
// are cumulative since the simulation started.
type LinkRecord struct {
	Type       string  `json:"type"` // "link"
	Net        int     `json:"net"`
	TPs        int64   `json:"t_ps"`
	Link       int64   `json:"link"`
	Plane      int32   `json:"plane"`
	QueueBytes int32   `json:"queue_bytes"`
	Util       float64 `json:"util"`
	TxBytes    int64   `json:"tx_bytes"`
	Drops      int64   `json:"drops"`
	Blackholed int64   `json:"blackholed,omitempty"`
}

// PlaneRecord is one dataplane's cumulative transmitted bytes at one
// sampling instant — the merged cross-plane view of §7's monitoring.
type PlaneRecord struct {
	Type    string `json:"type"` // "plane"
	Net     int    `json:"net"`
	TPs     int64  `json:"t_ps"`
	Plane   int32  `json:"plane"`
	TxBytes int64  `json:"tx_bytes"`
}

// EngineRecord is the event engine's state at one sampling instant:
// events fired and wall time since the previous sample, plus the current
// heap size.
type EngineRecord struct {
	Type     string `json:"type"` // "engine"
	Net      int    `json:"net"`
	TPs      int64  `json:"t_ps"`
	Events   uint64 `json:"events"`
	HeapLen  int    `json:"heap"`
	WallNano int64  `json:"wall_ns"`
}

// FlowRecord captures one completed transport flow.
type FlowRecord struct {
	Type string `json:"type"` // "flow"
	ID   int64  `json:"id"`
	// TPs is the sim time the flow completed, in picoseconds — with FCT
	// it anchors the flow's interval on a timeline (export-trace).
	TPs         int64   `json:"t_ps,omitempty"`
	Transport   string  `json:"transport"` // "tcp" | "ndp"
	Src         int64   `json:"src"`
	Dst         int64   `json:"dst"`
	Bytes       int64   `json:"bytes"`
	FCT         float64 `json:"fct_s"`
	Retransmits int64   `json:"retransmits"`
	Subflows    int     `json:"subflows"`
	// Planes lists the distinct dataplanes the flow's paths use — the
	// path/plane choice the paper's §7 monitoring must merge.
	Planes []int32 `json:"planes"`
	// Spans is the flow's FCT decomposition (latency attribution), present
	// only when the run enabled span recording. The ps durations sum to
	// the FCT exactly; carrying integer picoseconds (not float seconds)
	// keeps downstream aggregation order-independent and bit-exact.
	Spans []SpanShare `json:"spans,omitempty"`
}

// SpanShare is one (component, plane) cell of a flow's latency
// attribution. Plane is -1 for components not tied to a link (stalls,
// host waits).
type SpanShare struct {
	Component string `json:"c"`
	Plane     int32  `json:"plane"`
	Ps        int64  `json:"ps"`
}

// ValidSpanComponent reports whether name is a span component this
// schema version emits — the reader's defense against typo'd or
// future-version streams.
func ValidSpanComponent(name string) bool {
	_, ok := sim.ParseSpanComponent(name)
	return ok
}

// ProfileRecord is one (engine, event-kind, plane) bin of the event-loop
// flight recorder, written when the collector closes. Events is exact
// and deterministic for a fixed seed; WallNano is neither: it is this
// run's host, estimated from the events the recorder timed.
type ProfileRecord struct {
	Type     string `json:"type"` // "profile"
	Net      int    `json:"net"`
	Kind     string `json:"kind"`  // hop | deliver | tx | timer
	Plane    int32  `json:"plane"` // -1 for timer (no plane)
	Events   int64  `json:"events"`
	WallNano int64  `json:"wall_ns"`
	// SimPs is the engine's sim time when snapshotted — the profiled
	// duration, repeated on each of the engine's bins.
	SimPs int64 `json:"sim_ps,omitempty"`
}

// ValidEventKind reports whether name is an event kind this schema
// version emits.
func ValidEventKind(name string) bool {
	_, ok := sim.ParseEventKind(name)
	return ok
}

// FingerprintRecord is one epoch checkpoint of an engine's determinism
// hash chain (internal/sim fingerprints), emitted as the epoch closes; the
// trailing partial one is emitted when the collector closes. Hashes are
// rendered as 16-digit hex strings, not JSON numbers: uint64 values above
// 2^53 would be silently rounded by any consumer that parses them as
// float64. Net identifies the engine within this stream only — attach
// order is nondeterministic under workers > 1, so cross-run comparison
// pairs engines canonically by hash sequence (see internal/report
// divergence), never by Net.
type FingerprintRecord struct {
	Type   string `json:"type"` // "fp"
	Net    int    `json:"net"`
	Epoch  int64  `json:"epoch"`
	Events int64  `json:"events"` // cumulative events at this checkpoint
	TPs    int64  `json:"t_ps"`   // sim time of the last folded event
	// EpochEvents is the checkpoint cadence, repeated on every record so
	// a reader can validate two streams used the same cadence.
	EpochEvents int64       `json:"epoch_events"`
	Hash        string      `json:"hash"` // global chain, %016x
	Host        string      `json:"host"` // plane-less (timer) chain
	Planes      []PlaneHash `json:"planes,omitempty"`
	// Final marks the trailing partial checkpoint of an epoch still in
	// progress when the run ended.
	Final bool `json:"final,omitempty"`
	// Kind, Plane, Link, Flow, Seq and Size identify the event that closed
	// the epoch (at -fingerprint-epoch 1, the one event folded since the
	// previous checkpoint); a Final checkpoint has none. A zero value is
	// omitted and reads back as zero.
	Kind  string `json:"kind,omitempty"`  // hop | deliver | tx | timer
	Plane int32  `json:"plane,omitempty"` // -1 for timer (no plane)
	Link  int64  `json:"link,omitempty"`  // -1 for timer
	Flow  int64  `json:"flow,omitempty"`
	Seq   int64  `json:"seq,omitempty"`
	Size  int32  `json:"size,omitempty"`
}

// CheckpointRecord renders one checkpoint of engine net's fingerprinter,
// whose cadence is epochEvents, as the record the streams carry.
func CheckpointRecord(net int, epochEvents int64, cp sim.FingerprintCheckpoint) FingerprintRecord {
	r := FingerprintRecord{
		Type: KindFingerprint, Net: net, Epoch: cp.Epoch, Events: cp.Events,
		TPs: int64(cp.T), EpochEvents: epochEvents,
		Hash: FormatHash(cp.Global), Host: FormatHash(cp.Host), Final: cp.Partial,
	}
	for pl, h := range cp.Planes {
		r.Planes = append(r.Planes, PlaneHash{Plane: int32(pl), Hash: FormatHash(h)})
	}
	if !cp.Partial {
		r.Kind, r.Plane, r.Link = cp.Kind.String(), cp.Plane, cp.Link
		r.Flow, r.Seq, r.Size = cp.Flow, cp.Seq, cp.Size
	}
	return r
}

// PlaneHash is one dataplane's chain value within a checkpoint.
type PlaneHash struct {
	Plane int32  `json:"plane"`
	Hash  string `json:"hash"`
}

// FormatHash renders a chain value as the fixed-width hex string the
// fingerprint records carry, %016x without fmt: at -fingerprint-epoch 1 it
// runs for every chain of every event.
func FormatHash(h uint64) string {
	var b [16]byte
	for i := len(b) - 1; i >= 0; i-- {
		b[i] = "0123456789abcdef"[h&0xf]
		h >>= 4
	}
	return string(b[:])
}

// ParseHash inverts FormatHash.
func ParseHash(s string) (uint64, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("obs: hash %q: want 16 hex digits", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("obs: hash %q: %v", s, err)
	}
	return v, nil
}

// SolverRecord captures one LP/flow-solver invocation: which experiment
// asked, which solver ran, and the Garg–Könemann phase/iteration counts
// and wall time from internal/mcf.
type SolverRecord struct {
	Type       string  `json:"type"` // "solver"
	Exp        string  `json:"exp"`
	Solver     string  `json:"solver"` // "gk-fixed" | "gk-free" | "maxmin" | "simplex"
	K          int     `json:"k,omitempty"`
	Lambda     float64 `json:"lambda"`
	Phases     int     `json:"phases"`
	Iterations int64   `json:"iterations"`
	Attempts   int     `json:"attempts"`
	WallSec    float64 `json:"wall_s"`
}

// FaultRecord is one runtime-fault lifecycle event: "inject" and "clear"
// come from the chaos injector (physical truth), "detect", "failover",
// and "recover" from the measuring side (health monitor, transport,
// experiment harness). The Latency/Dip fields are filled only by the
// events that define them: detect latency on "detect", failover latency
// on "failover", recovery time and goodput-dip depth on "recover".
type FaultRecord struct {
	Type   string `json:"type"` // "fault"
	Net    int    `json:"net"`
	TPs    int64  `json:"t_ps"`
	Event  string `json:"event"`  // inject | clear | detect | failover | recover
	Target string `json:"target"` // e.g. "link:12", "switch:3", "plane:1"
	Plane  int32  `json:"plane"`  // affected plane, -1 if not plane-specific
	// LatencySec is the elapsed sim time the event measures: inject→detect
	// for "detect", detect→failover for "failover", inject→recovery for
	// "recover".
	LatencySec float64 `json:"latency_s,omitempty"`
	// DipFrac is the goodput dip depth in [0,1] (1 = total stall),
	// reported on "recover".
	DipFrac float64 `json:"dip_frac,omitempty"`
}

// PacketRecord is one packet lifecycle event of a traced engine
// (Collector.Trace). MetricsWriter.Packet hand-builds these lines without
// going through encoding/json; TestTraceLineMatchesPacketRecord pins the
// two representations together.
type PacketRecord struct {
	Type    string `json:"type"` // "pkt"
	Net     int    `json:"net"`
	Ev      string `json:"ev"` // enqueue | drop | trim | deliver | blackhole
	TPs     int64  `json:"t_ps"`
	Link    int64  `json:"link"`
	Plane   int32  `json:"plane"`
	Flow    int64  `json:"flow"`
	Seq     int64  `json:"seq"`
	Size    int32  `json:"size"`
	Trimmed bool   `json:"trimmed,omitempty"`
}
