package obs

// Sink is where records go: one typed method per record kind the
// collector emits. Every producer (the samplers, the packet tracers,
// RecordFlow/Solver/Fault, the profile bins and fingerprint checkpoints
// Close emits) hands its records to the collector's one sink, and
// internal/report's reader decodes a file back into one, so the stream and
// a live consumer see the same values by construction. The records are
// the JSONL schema's own (schema.go), Type and Net filled in. The
// implementations are MetricsWriter (the file), report.Aggregator (the
// summary) and report.Stream (keeps everything). One shared by several
// networks must be safe for concurrent use.
type Sink interface {
	Link(LinkRecord)
	Plane(PlaneRecord)
	Engine(EngineRecord)
	Flow(FlowRecord)
	Solver(SolverRecord)
	Fault(FaultRecord)
	Profile(ProfileRecord)
	Fingerprint(FingerprintRecord)
	Packet(PacketRecord)
}

// Tee returns a sink that hands every record to a, then to b.
func Tee(a, b Sink) Sink { return tee{a, b} }

type tee struct{ a, b Sink }

func (t tee) Link(r LinkRecord)               { t.a.Link(r); t.b.Link(r) }
func (t tee) Plane(r PlaneRecord)             { t.a.Plane(r); t.b.Plane(r) }
func (t tee) Engine(r EngineRecord)           { t.a.Engine(r); t.b.Engine(r) }
func (t tee) Flow(r FlowRecord)               { t.a.Flow(r); t.b.Flow(r) }
func (t tee) Solver(r SolverRecord)           { t.a.Solver(r); t.b.Solver(r) }
func (t tee) Fault(r FaultRecord)             { t.a.Fault(r); t.b.Fault(r) }
func (t tee) Profile(r ProfileRecord)         { t.a.Profile(r); t.b.Profile(r) }
func (t tee) Fingerprint(r FingerprintRecord) { t.a.Fingerprint(r); t.b.Fingerprint(r) }
func (t tee) Packet(r PacketRecord)           { t.a.Packet(r); t.b.Packet(r) }
