package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"pnet/internal/graph"
	"pnet/internal/sim"
)

// sendPacket pushes one packet with the given flow id over path p.
func sendPacket(net *sim.Network, p0 []graph.LinkID, flow int64) {
	p := net.NewPacket()
	p.Size = 1500
	p.Route = p0
	p.Deliver = &releaseSink{net: net}
	p.FlowID = flow
	net.Send(p)
}

func TestTraceFlowFilter(t *testing.T) {
	g, p0, _ := twoPlane()
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, g, sim.Config{})
	var buf bytes.Buffer
	c := NewCollector()
	c.Trace = true
	c.TraceFlows = []int64{42}
	c.StreamMetrics(&buf)
	c.AttachNetwork(eng, net)

	sendPacket(net, p0, 42)
	sendPacket(net, p0, 7)
	sendPacket(net, p0, 42)
	eng.Run()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	var lines []string
	for _, line := range nonEmptyLines(buf.String()) {
		if strings.HasPrefix(line, `{"type":"pkt"`) {
			lines = append(lines, line)
		}
	}
	if len(lines) == 0 {
		t.Fatal("no packet lines for the selected flow")
	}
	for _, line := range lines {
		var rec PacketRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad trace line %q: %v", line, err)
		}
		if rec.Flow != 42 {
			t.Errorf("flow %d leaked through the -trace-flow filter: %q", rec.Flow, line)
		}
	}
}

// TestTraceFlowFilterZeroAlloc proves tracing is free of allocations
// on both paths: a traced event goes from the tracer through
// MetricsWriter.Packet into the buffered stream, and a filtered event
// returns before a record is built, writing nothing.
func TestTraceFlowFilterZeroAlloc(t *testing.T) {
	g, p0, _ := twoPlane()
	eng := sim.NewEngine()
	net := sim.NewNetwork(eng, g, sim.Config{})
	var out lineCounter
	mw := NewMetricsWriter(&out)
	tr := &tracer{net: 2, eng: eng, g: g, only: []int64{42}, to: mw}

	p := net.NewPacket()
	p.Size = 1500
	p.FlowID = 42
	if avg := testing.AllocsPerRun(100, func() {
		tr.PacketEvent(sim.TraceEnqueue, p, p0[0])
	}); avg != 0 {
		t.Errorf("traced PacketEvent allocates %v per call, want 0", avg)
	}
	p.FlowID = 7 // not traced
	if avg := testing.AllocsPerRun(100, func() {
		tr.PacketEvent(sim.TraceEnqueue, p, p0[0])
	}); avg != 0 {
		t.Errorf("filtered PacketEvent allocates %v per call, want 0", avg)
	}
	if err := mw.Flush(); err != nil {
		t.Fatal(err)
	}
	if out.lines != 101 {
		t.Errorf("%d lines written, want the 101 traced events and none of the filtered ones", out.lines)
	}
	net.Release(p)
}

// lineCounter is an io.Writer that counts the lines written to it.
type lineCounter struct{ lines int }

func (c *lineCounter) Write(b []byte) (int, error) {
	c.lines += bytes.Count(b, []byte{'\n'})
	return len(b), nil
}
