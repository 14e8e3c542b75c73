package exec

import (
	"repro/internal/types"
)

// Materialize is a blocking buffer: Open fully drains the input — to a
// spill file when a context with a budget is supplied, else to memory —
// before the first row is served. It models the materialization points of
// the baseline systems (MapReduce's blocking shuffle, Hive/Spark writing
// shuffle data to disk); HRDBMS's own plans never insert it.
type Materialize struct {
	In     Operator
	ToDisk bool
	ctx    *Ctx

	mem      []types.Row
	reader   *spillReader
	prepared bool
	pos      int

	// BytesBuffered reports how much data was materialized (perf model).
	BytesBuffered int64
}

// NewMaterialize builds the blocking buffer.
func NewMaterialize(ctx *Ctx, in Operator, toDisk bool) *Materialize {
	return &Materialize{In: in, ToDisk: toDisk, ctx: ctx}
}

// Schema implements Operator.
func (m *Materialize) Schema() types.Schema { return m.In.Schema() }

// Open implements Operator.
func (m *Materialize) Open() error {
	m.mem, m.reader, m.prepared, m.pos, m.BytesBuffered = nil, nil, false, 0, 0
	return m.In.Open()
}

func (m *Materialize) prepare() error {
	var w *spillWriter
	if m.ToDisk && m.ctx != nil && m.ctx.TempDir != "" {
		var err error
		w, err = newSpillWriter(m.ctx, "mat-*")
		if err != nil {
			return err
		}
	}
	if err := drain(m.ctx, m.In.NextBatch, func(b []types.Row) error {
		for _, r := range b {
			sz := int64(types.RowEncodedSize(r))
			m.BytesBuffered += sz
			if w == nil {
				m.ctx.addState(sz)
			} else if err := w.write(r); err != nil {
				return err
			}
		}
		if w == nil {
			m.mem = append(m.mem, b...)
		}
		return nil
	}); err != nil {
		if w != nil {
			w.abort()
		}
		return err
	}
	if w != nil {
		rd, err := w.finish()
		if err != nil {
			return err
		}
		m.reader = rd
	}
	m.prepared = true
	return nil
}

// NextBatch implements Operator, serving the buffered rows in slabs — read
// back from the spill file, or retired windows of the in-memory buffer.
func (m *Materialize) NextBatch() ([]types.Row, bool, error) {
	if !m.prepared {
		if err := m.prepare(); err != nil {
			return nil, false, err
		}
	}
	if m.reader != nil {
		return m.reader.nextBatch(m.ctx.batchRows())
	}
	return nextWindow(m.mem, &m.pos, m.ctx.batchRows())
}

// Close implements Operator.
func (m *Materialize) Close() error {
	if m.reader != nil {
		m.reader.close()
		m.reader = nil
	}
	return m.In.Close()
}
