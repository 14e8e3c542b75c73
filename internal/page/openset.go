package page

import (
	"fmt"

	"repro/internal/types"
)

// OpenSet is the in-memory page set a columnar fragment appends to. It is
// elastic: a column is not a page-sized buffer but the running sealing state
// of its cells (a sealer) plus their tagged stream, so the set closes when its
// *sealed* pages are full, not when the widest appended stream is.
//
// A row is admitted while every column's smallest sealed candidate — fixed
// width, dictionary, or the tagged stream, as sealer.choose sizes them — still
// fits one page. A column with no typed candidate (mixed kinds; a string
// column whose dictionary is gone or no smaller than the stream, which is
// what high cardinality looks like from its first row) never caps the
// others: when its tagged stream outgrows a page it is cut at cell boundaries
// into a chain of at most MaxChainPages self-contained column pages, written
// to an overflow file, and its own page of the set becomes the chain's head.
type OpenSet struct {
	pageSize int
	rows     int
	cols     []openColumn
	chunk    sealer // scratch for sealing chain pages
	gen      uint64 // counts the changes (admitted rows, resets) to the set
}

// openColumn is one column of an OpenSet.
type openColumn struct {
	sealer
	runState
	tagged []byte // the cells, types.AppendValue encoded, back to back
	// cuts[k] is where chain page k+1 starts, were the tagged stream cut
	// into pages now.
	cuts []chainCut

	saved openMark // the state before the row being appended

	// The column's page and chain pages as Snapshot last sealed them, valid
	// while snapGen is the set's gen. A change does not overwrite them — a
	// scan may still be reading them — but makes the next Snapshot seal
	// fresh ones.
	snap      ColumnPage
	snapChain []ColumnPage
	snapGen   uint64
}

// runState is the scalar state an openColumn keeps beside its sealer's.
type runState struct {
	// The running min-max of a FLOAT or STRING column; an integer kind's is
	// the sealer's min and max.
	flo, fhi float64
	nan      bool // a NaN cell: the column has no usable float range
	slo, shi string
	tail     int // byte length of the last chain page, were the stream cut now
}

type chainCut struct{ cell, off int }

// openMark is what restores an openColumn to the state before a row: its
// scalars, and the lengths its slices had.
type openMark struct {
	seal                         sealState
	run                          runState
	tagged, entries, codes, cuts int
}

// CellTooLargeError reports a value whose encoding cannot fit one page even
// alone. The set it was offered to is unchanged.
type CellTooLargeError struct {
	Col       int // offset of the column in the row
	Size, Max int // the cell's encoded bytes; what a page of this size holds
}

func (e *CellTooLargeError) Error() string {
	return fmt.Sprintf("a value of %d encoded bytes does not fit one page (at most %d)", e.Size, e.Max)
}

// NewOpenSet creates an empty open set of ncols columns for pages of
// pageSize bytes.
func NewOpenSet(ncols, pageSize int) *OpenSet {
	s := &OpenSet{pageSize: pageSize, cols: make([]openColumn, ncols)}
	s.Reset()
	return s
}

// Reset empties the set, keeping its buffers.
func (s *OpenSet) Reset() {
	s.rows = 0
	s.gen++
	for i := range s.cols {
		c := &s.cols[i]
		c.reset()
		c.runState = runState{}
		c.tagged, c.cuts = c.tagged[:0], c.cuts[:0]
	}
}

// NumRows returns the rows admitted since the last Reset.
func (s *OpenSet) NumRows() int { return s.rows }

// Append admits r or reports false: the set is full and must be written out
// first. A value that no page could hold is a *CellTooLargeError. A row that
// is not admitted, for either reason, leaves the set exactly as it was.
func (s *OpenSet) Append(r types.Row) (bool, error) {
	if len(r) != len(s.cols) {
		return false, fmt.Errorf("page: row arity %d in a set of %d columns", len(r), len(s.cols))
	}
	cap := s.pageSize - colHeaderSize // payload bytes of one column page
	for ci, v := range r {
		if sz := s.cols[ci].append(v, cap); sz > cap {
			s.rewind(ci + 1)
			return false, &CellTooLargeError{Col: ci, Size: sz, Max: cap}
		}
	}
	for ci := range s.cols {
		if !s.cols[ci].fits(cap) {
			s.rewind(len(s.cols))
			return false, nil
		}
	}
	s.rows++
	s.gen++
	return true, nil
}

// rewind undoes the row being appended in the first n columns.
func (s *OpenSet) rewind(n int) {
	for ci := range s.cols[:n] {
		s.cols[ci].rewind()
	}
}

// append adds one cell — to the tagged stream, the sealing state, the running
// min-max and the chain cuts — and returns its encoded size.
func (c *openColumn) append(v types.Value, cap int) int {
	c.saved = openMark{c.sealState, c.runState, len(c.tagged), len(c.entries), len(c.codes), len(c.cuts)}
	first := c.kind == types.KindNull
	switch v.K {
	case types.KindFloat:
		switch {
		case v.F != v.F:
			c.nan = true
		case first:
			c.flo, c.fhi = v.F, v.F
		case v.F < c.flo:
			c.flo = v.F
		case v.F > c.fhi:
			c.fhi = v.F
		}
	case types.KindString:
		switch {
		case first:
			c.slo, c.shi = v.S, v.S
		case v.S < c.slo:
			c.slo = v.S
		case v.S > c.shi:
			c.shi = v.S
		}
	}
	start := len(c.tagged)
	c.tagged = types.AppendValue(c.tagged, v)
	sz := len(c.tagged) - start
	if c.tail+sz > cap {
		c.cuts = append(c.cuts, chainCut{cell: c.n, off: start})
		c.tail = 0
	}
	c.tail += sz
	c.add(c.tagged[start:])
	return sz
}

// chainable reports whether the column has no typed candidate, so that it is
// stored as its tagged stream however long that is.
func (c *openColumn) chainable() bool {
	if c.mixed || c.kind != types.KindString {
		return c.mixed
	}
	layout, _, _ := c.choose(len(c.tagged))
	return layout == layoutTagged
}

// fits is the admission rule for one column.
func (c *openColumn) fits(cap int) bool {
	if c.chainable() {
		return len(c.cuts) < MaxChainPages
	}
	_, size, _ := c.choose(len(c.tagged))
	return size <= cap
}

// rewind undoes the one append since saved.
func (c *openColumn) rewind() {
	m := c.saved
	if len(c.entries) > m.entries {
		// The cell filed the last entry, so no probe passes its slot.
		c.slots[c.slot(c.tagged[m.tagged:])] = 0
	}
	c.sealState, c.runState = m.seal, m.run
	c.tagged, c.entries, c.codes, c.cuts = c.tagged[:m.tagged], c.entries[:m.entries], c.codes[:m.codes], c.cuts[:m.cuts]
	n := m.seal.n // the cell being undone
	c.cells = c.cells[:n]
	c.nulls = c.nulls[:(n+7)/8]
	if n&7 != 0 {
		c.nulls[n>>3] &^= 1 << (uint(n) & 7)
	}
}

// chained reports whether the column is written as a chain: it is chainable
// and its tagged stream has outgrown one page.
func (c *openColumn) chained() bool { return len(c.cuts) > 0 && c.chainable() }

// MinMax returns the least and greatest non-NULL value of column ci, or two
// NULLs when it has no usable range: no value yet, mixed kinds, a NaN.
func (s *OpenSet) MinMax(ci int) (lo, hi types.Value) {
	c := &s.cols[ci]
	if c.mixed || c.nan {
		return types.Null, types.Null
	}
	switch c.kind {
	case types.KindInt, types.KindDate, types.KindBool:
		return types.Value{K: c.kind, I: c.min}, types.Value{K: c.kind, I: c.max}
	case types.KindFloat:
		return types.NewFloat(c.flo), types.NewFloat(c.fhi)
	case types.KindString:
		return types.NewString(c.slo), types.NewString(c.shi)
	}
	return types.Null, types.Null
}

// ChainPages returns how many overflow pages column ci takes: 0 for a column
// written into its own page of the set.
func (s *OpenSet) ChainPages(ci int) int {
	if c := &s.cols[ci]; c.chained() {
		return len(c.cuts) + 1
	}
	return 0
}

// WriteChunk writes chain page k of column ci into buf, a zeroed page: the
// cells between two cuts as a sealed column page of their own.
func (s *OpenSet) WriteChunk(ci, k int, buf []byte) {
	c := &s.cols[ci]
	from, to := chainCut{}, chainCut{cell: c.n, off: len(c.tagged)}
	if k > 0 {
		from = c.cuts[k-1]
	}
	if k < len(c.cuts) {
		to = c.cuts[k]
	}
	p := InitColumnPage(buf)
	setCount(buf, uint32(to.cell-from.cell))
	p.setPayloadLen(copy(buf[colHeaderSize:], c.tagged[from.off:to.off]))
	s.chunk.seal(p)
}

// WritePage writes column ci's page of the set into buf, a zeroed page: the
// layout choose picks, straight from the running state, or — for a chained
// column, whose ChainPages overflow pages start at chainStart — the head.
func (s *OpenSet) WritePage(ci int, buf []byte, chainStart uint32) {
	c := &s.cols[ci]
	p := InitColumnPage(buf)
	if c.chained() {
		p.setChain(s.rows, chainStart, uint32(len(c.cuts)+1))
		return
	}
	setCount(buf, uint32(s.rows))
	layout, size, width := c.choose(len(c.tagged))
	if layout == layoutTagged {
		p.setPayloadLen(copy(buf[colHeaderSize:], c.tagged))
		packHuffman(p)
		return
	}
	c.put(buf[colHeaderSize:], layout, width)
	p.setPayloadLen(size)
	buf[colOffFlags] = byte(layout << 1)
}

// Snapshot returns the read columns of the set sealed, chains included, so a
// scan reads an open set exactly as it reads a written one. A column is
// sealed into fresh buffers once per change to the set: until the next
// Append or Reset, every Snapshot shares them, and the caller must not write
// to them.
func (s *OpenSet) Snapshot(read []int) PageSet {
	set := PageSet{Pages: make([]ColumnPage, len(s.cols)), Chains: make([][]ColumnPage, len(s.cols))}
	for _, ci := range read {
		c := &s.cols[ci]
		if c.snapGen != s.gen {
			c.snapChain = nil // not a chained column's: Chunks reads its page
			if n := s.ChainPages(ci); n > 0 {
				// len == cap: a reader's append copies instead of writing
				// into the pages other scans share.
				c.snapChain = make([]ColumnPage, n)
				for k := range c.snapChain {
					c.snapChain[k] = ColumnPage{Buf: make([]byte, s.pageSize)}
					s.WriteChunk(ci, k, c.snapChain[k].Buf)
				}
			}
			buf := make([]byte, s.pageSize)
			s.WritePage(ci, buf, 0)
			c.snap, c.snapGen = ColumnPage{Buf: buf}, s.gen
		}
		set.Pages[ci], set.Chains[ci] = c.snap, c.snapChain
	}
	return set
}
