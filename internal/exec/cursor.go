package exec

import "repro/internal/types"

// Cursor is the one place rows are handed out one at a time: the
// coordinator's result cursor over a plan's root operator (and the reader
// ordered merges use for the head row of each input). Operators never pull
// through it from each other — between operators rows move only in slabs.
type Cursor struct {
	in  Operator
	cur []types.Row
	pos int
}

// NewCursor builds a row cursor over in.
func NewCursor(in Operator) *Cursor { return &Cursor{in: in} }

// Schema describes the rows Next returns.
func (c *Cursor) Schema() types.Schema { return c.in.Schema() }

// Open opens the underlying operator.
func (c *Cursor) Open() error {
	c.cur, c.pos = nil, 0
	return c.in.Open()
}

// Next returns the next row; ok=false signals exhaustion.
func (c *Cursor) Next() (types.Row, bool, error) {
	for c.pos >= len(c.cur) {
		b, ok, err := c.in.NextBatch()
		if err != nil || !ok {
			return nil, false, err
		}
		//lint:ignore slabown row cursor: the cursor is the slab's owner and drains cur before its next NextBatch call
		c.cur, c.pos = b, 0
	}
	r := c.cur[c.pos]
	c.pos++
	return r, true, nil
}

// Close closes the underlying operator.
func (c *Cursor) Close() error { return c.in.Close() }
