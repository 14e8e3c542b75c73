package page

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/compress"
	"repro/internal/types"
	"repro/internal/vec"
)

// The two typed layouts of a sealed column page. Both address a cell by its
// position, so a reader given a selection touches only the selected cells,
// and neither needs a bit-walk or a per-cell tag. Seal picks between them
// and the tagged stream by encoded size alone (see sealer.seal).
//
// Fixed (layoutFixed) — INT, DATE, BOOL and FLOAT pages:
//
//	byte 0      kind of every non-NULL cell
//	byte 1      cell width in bytes: 1, 2, 4 or 8
//	byte 2      1 when a null bitmap follows, else 0
//	bytes 3..10 base (int64, little-endian)
//	[⌈n/8⌉]     null bitmap, bit i%8 of byte i/8 set = cell i is NULL
//	n × width   cells, little-endian
//
// An INT/DATE/BOOL cell stores value − base, base being the page minimum and
// the width the narrowest that holds uint64(max) − uint64(min) (wrapping
// arithmetic, so int64 min and max fit one page). A FLOAT cell stores its 64
// bits at width 8 and base is 0. A NULL cell stores 0.
//
// Dict (layoutDict) — any kind, at most 256 distinct cells:
//
//	bytes 0..1  d, the entry count (uint16, 1..256)
//	d entries   in the types.AppendValue encoding; NULL is an entry
//	n bytes     one code per cell, each < d
//
// Two cells share an entry when their encodings are byte-identical, so −0.0
// and 0.0, and NaNs of different payloads, stay distinct.
const (
	fixedHeaderSize = 11
	maxDictEntries  = 256
)

// skipCells returns the position just past the count types.AppendValue cells
// that start at b[pos], each checked against len(b).
func skipCells(b []byte, pos, count int) (int, error) {
	for ; count > 0; count-- {
		if pos >= len(b) {
			return pos, errors.New("page: cell truncated")
		}
		switch types.Kind(b[pos]) {
		case types.KindNull:
			pos++
		case types.KindInt, types.KindDate:
			_, m := binary.Varint(b[pos+1:])
			if m <= 0 {
				return pos, errors.New("page: bad varint")
			}
			pos += 1 + m
		case types.KindBool:
			if len(b)-pos < 2 {
				return pos, errors.New("page: short bool")
			}
			pos += 2
		case types.KindFloat:
			if len(b)-pos < 9 {
				return pos, errors.New("page: short float")
			}
			pos += 9
		case types.KindString:
			l, m := binary.Uvarint(b[pos+1:])
			if m <= 0 {
				return pos, errors.New("page: bad string length")
			}
			pos += 1 + m
			if uint64(len(b)-pos) < l {
				return pos, fmt.Errorf("page: short string (%d < %d)", len(b)-pos, l)
			}
			pos += int(l)
		default:
			return pos, fmt.Errorf("page: unknown kind %d", b[pos])
		}
	}
	return pos, nil
}

// fixedView is a fixed-layout payload with every header field and length
// checked against the page's value count.
type fixedView struct {
	kind  types.Kind
	width int
	base  uint64
	nulls []byte // nil when the page has no NULL
	data  []byte // n × width
}

func parseFixed(pay []byte, n int) (fixedView, error) {
	if len(pay) < fixedHeaderSize {
		return fixedView{}, fmt.Errorf("page: fixed-width payload of %d bytes is shorter than its header", len(pay))
	}
	v := fixedView{kind: types.Kind(pay[0]), width: int(pay[1]), base: binary.LittleEndian.Uint64(pay[3:])}
	switch v.width {
	case 1, 2, 4, 8:
	default:
		return fixedView{}, fmt.Errorf("page: fixed-width cell width %d", v.width)
	}
	switch v.kind {
	case types.KindInt, types.KindDate, types.KindBool:
	case types.KindFloat:
		if v.width != 8 {
			return fixedView{}, fmt.Errorf("page: fixed-width float cell width %d", v.width)
		}
	default:
		return fixedView{}, fmt.Errorf("page: fixed-width page of kind %d", pay[0])
	}
	rest := pay[fixedHeaderSize:]
	switch pay[2] {
	case 0:
	case 1:
		nb := (n + 7) / 8
		if len(rest) < nb {
			return fixedView{}, fmt.Errorf("page: fixed-width null bitmap truncated (%d < %d bytes)", len(rest), nb)
		}
		v.nulls, rest = rest[:nb], rest[nb:]
	default:
		return fixedView{}, fmt.Errorf("page: fixed-width null marker %d", pay[2])
	}
	if uint64(len(rest)) != uint64(n)*uint64(v.width) {
		return fixedView{}, fmt.Errorf("page: fixed-width data is %d bytes, want %d cells of %d", len(rest), n, v.width)
	}
	v.data = rest
	return v, nil
}

func (v *fixedView) null(i int) bool {
	return v.nulls != nil && v.nulls[i>>3]>>(uint(i)&7)&1 != 0
}

// cell returns the stored bits of cell i (the delta, for the integer kinds).
func (v *fixedView) cell(i int) uint64 {
	switch v.width {
	case 1:
		return uint64(v.data[i])
	case 2:
		return uint64(binary.LittleEndian.Uint16(v.data[2*i:]))
	case 4:
		return uint64(binary.LittleEndian.Uint32(v.data[4*i:]))
	default:
		return binary.LittleEndian.Uint64(v.data[8*i:])
	}
}

// dictView is a dict-layout payload with its entries and the code array's
// length checked; a code is checked against d when it is read.
type dictView struct {
	pay   []byte
	d     int
	off   [maxDictEntries + 1]int32 // entry e is pay[off[e]:off[e+1]]
	codes []byte
}

func (v *dictView) parse(pay []byte, n int) error {
	if len(pay) < 2 {
		return fmt.Errorf("page: dictionary payload of %d bytes is shorter than its header", len(pay))
	}
	v.pay, v.d = pay, int(binary.LittleEndian.Uint16(pay))
	if v.d == 0 || v.d > maxDictEntries {
		return fmt.Errorf("page: dictionary of %d entries", v.d)
	}
	pos := 2
	for e := 0; e < v.d; e++ {
		v.off[e] = int32(pos)
		next, err := skipCells(pay, pos, 1)
		if err != nil {
			return fmt.Errorf("page: dictionary entry %d: %w", e, err)
		}
		pos = next
	}
	v.off[v.d] = int32(pos)
	if len(pay)-pos != n {
		return fmt.Errorf("page: dictionary page has %d codes for %d values", len(pay)-pos, n)
	}
	v.codes = pay[pos:]
	return nil
}

func (v *dictView) entry(e int) []byte { return v.pay[v.off[e]:v.off[e+1]] }

func (v *dictView) errCode(i int) error {
	return fmt.Errorf("page: column value %d: code %d of a %d-entry dictionary", i, v.codes[i], v.d)
}

// checkCodes reports the first code that names no entry, in one pass over
// the codes (none at all for a full 256-entry dictionary).
func (v *dictView) checkCodes() error {
	if v.d == maxDictEntries || !anyAtLeast(v.codes, v.d) {
		return nil
	}
	for i, c := range v.codes {
		if int(c) >= v.d {
			return v.errCode(i)
		}
	}
	return nil
}

// anyAtLeast reports whether a byte of b is d or more (0 < d < 256), eight
// bytes at a time while d ≤ 128: adding 128 − d to every byte of a word sets
// its high bit exactly when the byte is at least d, or was 128 or more —
// which is at least d as well — and a carry out of a byte comes only from
// such a byte.
func anyAtLeast(b []byte, d int) bool {
	i := 0
	if d <= 128 {
		const ones, highs = 0x0101010101010101, 0x8080808080808080
		add := uint64(128-d) * ones
		for ; i+8 <= len(b); i += 8 {
			if x := binary.LittleEndian.Uint64(b[i:]); ((x+add)|x)&highs != 0 {
				return true
			}
		}
	}
	for _, c := range b[i:] {
		if int(c) >= d {
			return true
		}
	}
	return false
}

// intEntries reads an INT/DATE/BOOL dict page's entries into val, marking
// NULL entries in null; hasNull reports one. An entry of another kind is
// ErrKindMismatch.
func intEntries(v *dictView, kind types.Kind, val *[maxDictEntries]int64, null *[maxDictEntries]bool) (hasNull bool, err error) {
	for e := 0; e < v.d; e++ {
		ent := v.entry(e)
		switch tag := types.Kind(ent[0]); {
		case tag == types.KindNull:
			null[e], hasNull = true, true
		case tag != kind:
			return false, ErrKindMismatch
		case kind == types.KindBool:
			val[e] = int64(ent[1])
		default:
			val[e], _ = binary.Varint(ent[1:]) // checked by parse
		}
	}
	return hasNull, nil
}

// floatEntries is intEntries for a FLOAT dict page.
func floatEntries(v *dictView, val *[maxDictEntries]float64, null *[maxDictEntries]bool) (hasNull bool, err error) {
	for e := 0; e < v.d; e++ {
		switch ent := v.entry(e); types.Kind(ent[0]) {
		case types.KindNull:
			null[e], hasNull = true, true
		case types.KindFloat:
			val[e] = math.Float64frombits(binary.LittleEndian.Uint64(ent[1:]))
		default:
			return false, ErrKindMismatch
		}
	}
	return hasNull, nil
}

// stringEntries marks a STRING dict page's NULL entries in null; hasNull
// reports one. An entry of another kind is ErrKindMismatch.
func stringEntries(v *dictView, null *[maxDictEntries]bool) (hasNull bool, err error) {
	for e := 0; e < v.d; e++ {
		switch types.Kind(v.entry(e)[0]) {
		case types.KindNull:
			null[e], hasNull = true, true
		case types.KindString:
		default:
			return false, ErrKindMismatch
		}
	}
	return hasNull, nil
}

// intern returns the code of string entry e in dict, interning it.
func (v *dictView) intern(e int, dict *vec.Dict) int32 {
	ent := v.entry(e)
	_, m := binary.Uvarint(ent[1:]) // checked by parse
	return dict.CodeBytes(ent[1+m:])
}

// internAll interns every string entry that null does not mark into dict,
// recording its code in code.
func (v *dictView) internAll(dict *vec.Dict, null *[maxDictEntries]bool, code *[maxDictEntries]int32) {
	for e := 0; e < v.d; e++ {
		if !null[e] {
			code[e] = v.intern(e, dict)
		}
	}
}

// zeroNulls finishes a full decode of a fixed-layout page into out: the
// page's NULL cells are zeroed and marked at their slab offsets.
func zeroNulls[T int64 | float64](v *fixedView, out []T, nulls *vec.Bitmap, start int) {
	for bi, b := range v.nulls {
		for ; b != 0; b &= b - 1 {
			if i := bi<<3 + bits.TrailingZeros8(b); i < len(out) {
				out[i] = 0
				nulls.Set(start + i)
			}
		}
	}
}

// undo rolls a failed decode back to slab length start.
func undo[T any](dst []T, nulls *vec.Bitmap, start int) []T {
	if nulls != nil {
		nulls.Truncate(start)
	}
	return dst[:start]
}

func errSelBeyond(pos int32, n int) error {
	return fmt.Errorf("page: selection position %d beyond page (%d values)", pos, n)
}

// dictCells appends the decoded entry of each wanted cell of a dict-layout
// page — every cell for a nil sel — to dst, marking NULLs only when the page
// has a NULL entry. Over every cell, the codes are all checked in one pass
// before one loop copies the entries. A code with no entry or a position
// beyond the page rolls dst and nulls back.
func dictCells[T int64 | float64 | int32](v *dictView, val *[maxDictEntries]T, null *[maxDictEntries]bool, hasNull bool, dst []T, nulls *vec.Bitmap, sel []int32) ([]T, error) {
	start := len(dst)
	if sel == nil {
		if err := v.checkCodes(); err != nil {
			return dst, err
		}
		dst = slices.Grow(dst, len(v.codes))[:start+len(v.codes)]
		out := dst[start:]
		for i, c := range v.codes {
			out[i] = val[c]
		}
		if hasNull {
			for i, c := range v.codes {
				if null[c] {
					nulls.Set(start + i)
				}
			}
		}
		return dst, nil
	}
	dst = slices.Grow(dst, len(sel))[:start+len(sel)]
	out := dst[start:]
	for k, pos := range sel {
		i := int(pos)
		if uint(i) >= uint(len(v.codes)) {
			return undo(dst, nulls, start), errSelBeyond(pos, len(v.codes))
		}
		c := v.codes[i]
		if int(c) >= v.d {
			return undo(dst, nulls, start), v.errCode(i)
		}
		if hasNull && null[c] {
			nulls.Set(start + k)
		}
		out[k] = val[c]
	}
	return dst, nil
}

// typedInt64s is the INT/DATE/BOOL reader of the two typed layouts: it
// appends the cells at the positions in sel (nil: every position) to dst,
// reading only those cells. The page's kind is known before anything is
// appended, so ErrKindMismatch leaves dst and nulls untouched.
func typedInt64s(layout int, pay []byte, n int, kind types.Kind, dst []int64, nulls *vec.Bitmap, sel []int32) ([]int64, error) {
	if layout == layoutDict {
		var v dictView
		if err := v.parse(pay, n); err != nil {
			return dst, err
		}
		var val [maxDictEntries]int64
		var null [maxDictEntries]bool
		hasNull, err := intEntries(&v, kind, &val, &null)
		if err != nil {
			return dst, err
		}
		return dictCells(&v, &val, &null, hasNull, dst, nulls, sel)
	}
	v, err := parseFixed(pay, n)
	if err != nil {
		return dst, err
	}
	if v.kind != kind {
		return dst, ErrKindMismatch
	}
	start := len(dst)
	if sel == nil {
		dst = slices.Grow(dst, n)[:start+n]
		out := dst[start:]
		switch v.width {
		case 1:
			for i := range out {
				out[i] = int64(v.base + uint64(v.data[i]))
			}
		case 2:
			for i := range out {
				out[i] = int64(v.base + uint64(binary.LittleEndian.Uint16(v.data[2*i:])))
			}
		case 4:
			for i := range out {
				out[i] = int64(v.base + uint64(binary.LittleEndian.Uint32(v.data[4*i:])))
			}
		default:
			for i := range out {
				out[i] = int64(v.base + binary.LittleEndian.Uint64(v.data[8*i:]))
			}
		}
		zeroNulls(&v, out, nulls, start)
		return dst, nil
	}
	dst = slices.Grow(dst, len(sel))[:start+len(sel)]
	out := dst[start:]
	for k, pos := range sel {
		i := int(pos)
		switch {
		case uint(i) >= uint(n):
			return undo(dst, nulls, start), errSelBeyond(pos, n)
		case v.null(i):
			nulls.Set(start + k)
			out[k] = 0
		default:
			out[k] = int64(v.base + v.cell(i))
		}
	}
	return dst, nil
}

// typedFloat64s is the FLOAT reader of the two typed layouts; see
// typedInt64s.
func typedFloat64s(layout int, pay []byte, n int, dst []float64, nulls *vec.Bitmap, sel []int32) ([]float64, error) {
	if layout == layoutDict {
		var v dictView
		if err := v.parse(pay, n); err != nil {
			return dst, err
		}
		var val [maxDictEntries]float64
		var null [maxDictEntries]bool
		hasNull, err := floatEntries(&v, &val, &null)
		if err != nil {
			return dst, err
		}
		return dictCells(&v, &val, &null, hasNull, dst, nulls, sel)
	}
	v, err := parseFixed(pay, n)
	if err != nil {
		return dst, err
	}
	if v.kind != types.KindFloat {
		return dst, ErrKindMismatch
	}
	start := len(dst)
	if sel == nil {
		dst = slices.Grow(dst, n)[:start+n]
		out := dst[start:]
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(v.data[8*i:]))
		}
		zeroNulls(&v, out, nulls, start)
		return dst, nil
	}
	dst = slices.Grow(dst, len(sel))[:start+len(sel)]
	out := dst[start:]
	for k, pos := range sel {
		i := int(pos)
		switch {
		case uint(i) >= uint(n):
			return undo(dst, nulls, start), errSelBeyond(pos, n)
		case v.null(i):
			nulls.Set(start + k)
			out[k] = 0
		default:
			out[k] = math.Float64frombits(binary.LittleEndian.Uint64(v.data[8*i:]))
		}
	}
	return dst, nil
}

// typedStrings is the STRING reader of the typed layouts (strings seal into
// the dict layout only). Over every cell, each entry is interned once and the
// codes copied as dictCells copies; under a selection, an entry is interned
// the first time a wanted cell uses it — at most d CodeBytes probes per page,
// none for an entry no wanted cell refers to.
func typedStrings(layout int, pay []byte, n int, dict *vec.Dict, dst []int32, nulls *vec.Bitmap, sel []int32) ([]int32, error) {
	if layout == layoutFixed {
		return dst, ErrKindMismatch // no string is fixed-width; the boxed rerun validates the page
	}
	var v dictView
	if err := v.parse(pay, n); err != nil {
		return dst, err
	}
	var null [maxDictEntries]bool
	hasNull, err := stringEntries(&v, &null)
	if err != nil {
		return dst, err
	}
	var code [maxDictEntries]int32
	if sel == nil {
		if err := v.checkCodes(); err != nil {
			return dst, err
		}
		// A page's entries are the cells it was sealed from, so every one is
		// used; the codes are now known good.
		v.internAll(dict, &null, &code)
		return dictCells(&v, &code, &null, hasNull, dst, nulls, nil)
	}
	// code holds an entry's batch-dictionary code + 1; 0 = not interned yet.
	start := len(dst)
	dst = slices.Grow(dst, len(sel))[:start+len(sel)]
	out := dst[start:]
	for k, pos := range sel {
		i := int(pos)
		if uint(i) >= uint(n) {
			return undo(dst, nulls, start), errSelBeyond(pos, n)
		}
		c := v.codes[i]
		switch {
		case int(c) >= v.d:
			return undo(dst, nulls, start), v.errCode(i)
		case null[c]:
			nulls.Set(start + k)
			out[k] = 0
			continue
		case code[c] == 0:
			code[c] = v.intern(int(c), dict) + 1
		}
		out[k] = code[c] - 1
	}
	return dst, nil
}

// fixedBoxed streams a fixed-layout page through fn as boxed values.
func fixedBoxed(pay []byte, n int, fn func(types.Value) bool) error {
	v, err := parseFixed(pay, n)
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		val := types.Null
		switch {
		case v.null(i):
		case v.kind == types.KindFloat:
			val = types.NewFloat(math.Float64frombits(v.cell(i)))
		default:
			val = types.Value{K: v.kind, I: int64(v.base + v.cell(i))}
		}
		if !fn(val) {
			return nil
		}
	}
	return nil
}

// dictBoxed streams a dict-layout page through fn as boxed values: each
// entry is boxed once, however many cells share it.
func dictBoxed(pay []byte, n int, fn func(types.Value) bool) error {
	var v dictView
	if err := v.parse(pay, n); err != nil {
		return err
	}
	vals := make([]types.Value, v.d)
	for e := range vals {
		val, _, err := types.DecodeValue(v.entry(e))
		if err != nil {
			return fmt.Errorf("page: dictionary entry %d: %w", e, err)
		}
		vals[e] = val
	}
	for i, c := range v.codes {
		if int(c) >= v.d {
			return v.errCode(i)
		}
		if !fn(vals[c]) {
			return nil
		}
	}
	return nil
}

// sealer is the sealing state of one column page, built a cell at a time:
// what both typed candidates are sized by and written from. ColumnPage.Seal
// fills one from a page's tagged payload (scan); an OpenSet column keeps one
// running as rows are appended, so its page is written with no second parse.
type sealer struct {
	sealState
	cells   []uint64 // fixed-width kinds: each cell's integer payload or float bits
	nulls   []byte   // the fixed layout's null bitmap
	entries []byte   // the dict layout's entries, in first-seen order
	codes   []byte
	// The dictionary's index, which holds no pointer: an OpenSet keeps a
	// sealer per column for as long as its table lives, so the garbage
	// collector would otherwise trace a map and a string per entry of every
	// column. slots, probed linearly from a cell's hash, hold an entry's
	// code + 1 (0 is empty), and ends[e] is where entry e ends in entries.
	slots [2 * maxDictEntries]uint16
	ends  [maxDictEntries]uint32
}

// sealState is the scalar part of a sealer: an OpenSet snapshots it before a
// row is added and restores it when the row is refused.
type sealState struct {
	n        int
	kind     types.Kind // the kind the non-NULL cells share; KindNull before the first
	mixed    bool       // the non-NULL cells do not share one kind
	nNull    int
	min, max int64 // over the integer payloads of non-NULL cells
	dictOK   bool  // at most maxDictEntries distinct cells so far
	dict     int   // entries in the dictionary
}

func (s *sealer) reset() {
	s.sealState = sealState{dictOK: true}
	s.cells, s.nulls, s.codes, s.entries = s.cells[:0], s.nulls[:0], s.codes[:0], s.entries[:0]
	clear(s.slots[:])
}

// entry returns the encoded cell of dictionary entry e.
func (s *sealer) entry(e int) []byte {
	start := uint32(0)
	if e > 0 {
		start = s.ends[e-1]
	}
	return s.entries[start:s.ends[e]]
}

// slot returns the index slot that holds cell's entry, or the empty slot it
// would be filed at. The index is at most half full, so the probe ends.
func (s *sealer) slot(cell []byte) int {
	mask := len(s.slots) - 1
	for i := int(types.HashBytes(cell)) & mask; ; i = (i + 1) & mask {
		if c := s.slots[i]; c == 0 || bytes.Equal(s.entry(int(c)-1), cell) {
			return i
		}
	}
}

// add folds one well-formed types.AppendValue cell into the state.
func (s *sealer) add(cell []byte) {
	i := s.n
	s.n++
	if i&7 == 0 {
		s.nulls = append(s.nulls, 0)
	}
	tag, bits := types.Kind(cell[0]), uint64(0)
	switch tag {
	case types.KindNull:
		s.nNull++
		s.nulls[i>>3] |= 1 << (uint(i) & 7)
	case types.KindInt, types.KindDate:
		v, _ := binary.Varint(cell[1:])
		bits = uint64(v)
	case types.KindBool:
		bits = uint64(cell[1])
	case types.KindFloat:
		bits = binary.LittleEndian.Uint64(cell[1:])
	}
	if tag != types.KindNull {
		switch v := int64(bits); {
		case s.kind == types.KindNull:
			s.kind, s.min, s.max = tag, v, v
		case tag != s.kind:
			s.mixed = true
		case v < s.min:
			s.min = v
		case v > s.max:
			s.max = v
		}
	}
	s.cells = append(s.cells, bits)
	if !s.dictOK {
		return
	}
	at := s.slot(cell)
	c := int(s.slots[at]) - 1
	if c < 0 {
		if c = s.dict; c == maxDictEntries {
			s.dictOK = false
			return
		}
		s.dict++
		s.slots[at] = uint16(c + 1)
		s.entries = append(s.entries, cell...)
		s.ends[c] = uint32(len(s.entries))
	}
	s.codes = append(s.codes, byte(c))
}

// choose picks the layout of the cells so far, whose tagged stream is tagged
// bytes long, by encoded size alone: the candidates are sized — fixed for the
// four fixed-width kinds, dict for any kind with few enough distinct cells —
// and the smaller wins if it is smaller than the tagged stream, fixed winning
// a tie. Cells that share no kind (or are all NULL) stay tagged.
func (s *sealer) choose(tagged int) (layout, size, width int) {
	layout, size = layoutTagged, tagged
	if s.mixed || s.kind == types.KindNull {
		return layout, size, 0
	}
	if width = fixedWidth(s.kind, s.min, s.max); width != 0 {
		fixed := fixedHeaderSize + s.n*width
		if s.nNull > 0 {
			fixed += len(s.nulls)
		}
		if fixed < size {
			layout, size = layoutFixed, fixed
		}
	}
	if dict := 2 + len(s.entries) + s.n; s.dictOK && dict < size {
		layout, size = layoutDict, dict
	}
	return layout, size, width
}

// put writes a typed layout choose picked into a page body.
func (s *sealer) put(body []byte, layout, width int) {
	if layout == layoutFixed {
		s.putFixed(body, width)
		return
	}
	binary.LittleEndian.PutUint16(body, uint16(s.dict))
	codesAt := 2 + copy(body[2:], s.entries)
	copy(body[codesAt:], s.codes)
}

// seal is ColumnPage.Seal: the tagged payload is parsed once into the state
// and rewritten in the layout choose picks; a page that stays tagged is
// Huffman-packed when that shrinks it.
func (s *sealer) seal(p ColumnPage) bool {
	n := p.NumValues()
	if p.sealed() || n == 0 {
		return false
	}
	pay := p.Buf[colHeaderSize : colHeaderSize+p.payloadLen()]
	if !s.scan(pay, n) {
		return packHuffman(p)
	}
	layout, size, width := s.choose(len(pay))
	if layout == layoutTagged {
		return packHuffman(p)
	}
	s.put(p.Buf[colHeaderSize:], layout, width)
	p.setSealed(byte(layout<<1), size)
	return true
}

// packHuffman is Seal for a page with no smaller typed layout: the tagged
// stream is Huffman-packed in place if that shrinks it.
func packHuffman(p ColumnPage) bool {
	pay := p.Buf[colHeaderSize : colHeaderSize+p.payloadLen()]
	packed := compress.CompressHuffman(pay)
	if len(packed) >= len(pay) {
		return false
	}
	p.setSealed(flagPacked, copy(pay, packed))
	return true
}

// setSealed records a payload rewritten in place — its flags and new, smaller
// length — and zeroes the bytes it freed, so the page file's LZ4 stores a run
// instead of the stale tail of the tagged stream.
func (p ColumnPage) setSealed(flags byte, size int) {
	clear(p.Buf[colHeaderSize+size : colHeaderSize+p.payloadLen()])
	p.setPayloadLen(size)
	p.Buf[colOffFlags] = flags
}

// scan parses the n tagged cells of pay into the state. It reports false when
// the payload is not exactly n well-formed cells, or the cells share no kind
// (the parse stops at the first that differs: such a page stays tagged).
func (s *sealer) scan(pay []byte, n int) bool {
	s.reset()
	pos := 0
	for i := 0; i < n; i++ {
		next, err := skipCells(pay, pos, 1)
		if err != nil {
			return false
		}
		s.add(pay[pos:next])
		pos = next
		if s.mixed {
			return false
		}
	}
	return pos == len(pay)
}

// fixedWidth returns the fixed layout's cell width for a page of kind whose
// integer payloads span [min, max], or 0 when the kind has no fixed width.
func fixedWidth(kind types.Kind, min, max int64) int {
	switch kind {
	case types.KindFloat:
		return 8
	case types.KindInt, types.KindDate, types.KindBool:
		switch r := uint64(max) - uint64(min); {
		case r <= math.MaxUint8:
			return 1
		case r <= math.MaxUint16:
			return 2
		case r <= math.MaxUint32:
			return 4
		}
		return 8
	}
	return 0
}

// putFixed writes the cells in the fixed layout.
func (s *sealer) putFixed(out []byte, width int) {
	base := uint64(s.min)
	if s.kind == types.KindFloat {
		base = 0
	}
	out[0], out[1], out[2] = byte(s.kind), byte(width), 0
	binary.LittleEndian.PutUint64(out[3:], base)
	pos := fixedHeaderSize
	if s.nNull > 0 {
		out[2] = 1
		pos += copy(out[pos:], s.nulls)
		for i := range s.cells {
			if s.nulls[i>>3]>>(uint(i)&7)&1 != 0 {
				s.cells[i] = base // a NULL cell stores 0
			}
		}
	}
	for _, c := range s.cells {
		switch d := c - base; width {
		case 1:
			out[pos] = byte(d)
		case 2:
			binary.LittleEndian.PutUint16(out[pos:], uint16(d))
		case 4:
			binary.LittleEndian.PutUint32(out[pos:], uint32(d))
		default:
			binary.LittleEndian.PutUint64(out[pos:], d)
		}
		pos += width
	}
}
