package exec

import (
	"time"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/types"
	"repro/internal/vec"
)

// Traced wraps an operator and charges its Open/NextBatch/Close time, output
// rows and slab count to an obs.Span. Wrappers are only created when a query
// runs with tracing enabled — the disabled path builds the plain operator
// tree, so hot loops carry zero tracing cost (see BenchmarkSpanDisabled in
// obs).
type Traced struct {
	in Operator
	sp *obs.Span
}

// NewTraced wraps in with span sp. If sp is nil the operator is returned
// unwrapped. A vector-native input gets a wrapper that also exposes
// NextVec, so tracing never demotes a vector plan to boxed rows.
func NewTraced(in Operator, sp *obs.Span) Operator {
	if sp == nil {
		return in
	}
	t := &Traced{in: in, sp: sp}
	if vin, ok := nativeVec(in); ok {
		return &tracedVec{Traced: t, vin: vin}
	}
	return t
}

// Schema returns the wrapped operator's schema.
func (t *Traced) Schema() types.Schema { return t.in.Schema() }

// Open opens the wrapped operator, charging the time to the span.
func (t *Traced) Open() error {
	start := time.Now()
	err := t.in.Open()
	t.sp.AddWall(time.Since(start))
	return err
}

// NextBatch pulls one slab, charging time and counting rows and slabs.
func (t *Traced) NextBatch() ([]types.Row, bool, error) {
	start := time.Now()
	b, ok, err := t.in.NextBatch()
	t.sp.AddWall(time.Since(start))
	if ok && err == nil {
		t.sp.AddRowsOut(int64(len(b)))
		t.sp.AddBatches(1)
	}
	return b, ok, err
}

// Close closes the wrapped operator and finishes its span: Close is the
// last lifecycle call on an operator, so the span's counters are final.
func (t *Traced) Close() error {
	start := time.Now()
	err := t.in.Close()
	t.sp.AddWall(time.Since(start))
	t.sp.Finish()
	return err
}

// tracedVec is the Traced wrapper for vector-native operators: NextVec
// charges time, the batch's active rows, and the vector-batch counter, so
// EXPLAIN ANALYZE shows the vector path in effect.
type tracedVec struct {
	*Traced
	vin VecOperator
}

// NextVec pulls one vector batch, charging time, rows, and batch count.
func (t *tracedVec) NextVec() (*vec.Batch, bool, error) {
	start := time.Now()
	b, ok, err := t.vin.NextVec()
	t.sp.AddWall(time.Since(start))
	if ok && err == nil {
		t.sp.AddRowsOut(int64(b.Rows()))
		t.sp.AddVecBatches(1)
	}
	return b, ok, err
}

// CountingEndpoint wraps a network.Endpoint and attributes outbound bytes
// and messages to a span, mirroring the Meter's semantics (self-delivery
// is loopback, not network traffic). Exchange operators built for a traced
// query send through one of these, so per-operator net counters sum to the
// same total the fabric meter reports for the query. A gather's sender
// (SendAll, SendAllVec) also charges it the rows it ships (shipped).
type CountingEndpoint struct {
	network.Endpoint
	sp *obs.Span
}

// NewCountingEndpoint wraps ep; with a nil span, ep is returned as-is.
func NewCountingEndpoint(ep network.Endpoint, sp *obs.Span) network.Endpoint {
	if sp == nil {
		return ep
	}
	return &CountingEndpoint{Endpoint: ep, sp: sp}
}

// shipped charges n rows to ep's span when ep is a CountingEndpoint: the
// rows a gather's sender put on the wire.
func shipped(ep network.Endpoint, n int) {
	if c, ok := ep.(*CountingEndpoint); ok {
		c.sp.AddRowsOut(int64(n))
	}
}

// Send counts the payload against the span, then forwards to the real
// endpoint.
func (c *CountingEndpoint) Send(to, dest int, channel string, payload []byte) error {
	if to != c.Endpoint.NodeID() {
		c.sp.AddNet(int64(len(payload)), 1)
	}
	return c.Endpoint.Send(to, dest, channel, payload)
}
