package exec

import (
	"errors"
	"math"
	"slices"
	"strings"

	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vec"
)

// VecOperator is an Operator that additionally serves typed columns:
// NextVec returns a *vec.Batch of unboxed column slabs instead of a boxed
// row slab.
//
// Ownership mirrors the slab contract (see vec package doc): the returned
// batch — column slabs, bitmaps, and selection vector — is valid only until
// the producer's next NextVec or Close; the caller may rewrite Sel in place
// but must not retain the batch or its arrays. Boxed values copied out are
// immutable and retainable.
type VecOperator interface {
	Operator
	// NextVec returns the next batch; ok=false signals exhaustion.
	// Implementations never return a batch with zero active rows and
	// ok=true.
	NextVec() (*vec.Batch, bool, error)
}

// nativeVec reports whether the operator exposes a native vector path. Its
// one caller is NewTraced: a wrapper must keep the face of whatever it wraps.
// Nothing that consumes a stream asks — the plan edge says which
// representation it carries (cluster's dstream.typed).
func nativeVec(op Operator) (VecOperator, bool) {
	v, ok := op.(VecOperator)
	return v, ok
}

// vecRowShim gives a typed scan its Operator face by materializing row
// slabs from its NextVec, charging the rows to BoxedRows when ctx is set.
// The scan sets src to itself, and ctx, in its constructor.
type vecRowShim struct {
	src  VecOperator
	ctx  *Ctx
	slab []types.Row
}

func (s *vecRowShim) NextBatch() ([]types.Row, bool, error) {
	b, ok, err := s.src.NextVec()
	if err != nil || !ok {
		return nil, false, err
	}
	s.slab = b.Materialize(s.slab)
	s.ctx.addBoxed(int64(len(s.slab)))
	return s.slab, true, nil
}

// keyColumns resolves key expressions over an n-column input: by key, the
// input column it is, or -1 for an expression — which is evaluated on the
// boxed row, so for a typed front end anyExpr means every row is boxed. The
// join's key hash and build-key compare read a plain column straight off the
// row through it.
func keyColumns(keys []expr.Expr, n int) (cols []int, anyExpr bool) {
	cols = make([]int, len(keys))
	for i, k := range keys {
		cols[i] = -1
		if c, ok := k.(*expr.Col); ok && c.Index >= 0 && c.Index < n {
			cols[i] = c.Index
		} else {
			anyExpr = true
		}
	}
	return cols, anyExpr
}

// errVecFallback signals that a compiled kernel met a runtime layout it
// cannot handle (e.g. a boxed column); the operator re-evaluates
// the batch through the row expression path, preserving exact semantics.
var errVecFallback = errors.New("exec: vector kernel fallback")

// numVec is a compiled numeric result over the active rows of a batch:
// dense (index k = k-th active row), all-int or all-float, with an optional
// dense null mask.
type numVec struct {
	isFloat bool
	i       []int64
	f       []float64
	null    []bool // nil = no nulls
}

// numNode evaluates a numeric (INT/FLOAT/DATE) expression vectorized.
type numNode interface {
	evalNum(b *vec.Batch, n int) (numVec, error)
}

// boolNode evaluates a boolean expression vectorized into dense truth and
// null masks (SQL three-valued logic: null[k] overrides t[k]) over the n
// active rows of b — all of them, or the ones b.Sel lists.
type boolNode interface {
	evalBool(b *vec.Batch, n int) (t, null []bool, err error)
}

func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// grow returns s resized to n, its contents unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// nullsOf is the dense NULL mask of typed column c over b's n active rows,
// built in scratch — nil when c has no NULL bitmap, so a kernel over a
// NULL-free column never walks its rows for NULLs.
func nullsOf(c *vec.Col, b *vec.Batch, n int, scratch *[]bool) []bool {
	if len(c.Nulls) == 0 {
		return nil
	}
	var null []bool
	for k := 0; k < n; k++ {
		if vec.GetBit(c.Nulls, b.Index(k)) {
			if null == nil {
				null = growBools(*scratch, n)
				*scratch = null
			}
			null[k] = true
		}
	}
	return null
}

// gather returns xs at b's n active rows: xs itself when every row is
// active, a copy into scratch under a selection.
func gather[T int64 | float64](xs []T, sel []int32, n int, scratch *[]T) []T {
	if sel == nil {
		return xs[:n]
	}
	out := grow(*scratch, n)
	for k, i := range sel[:n] {
		out[k] = xs[i]
	}
	*scratch = out
	return out
}

// numColNode reads a typed numeric column at the active rows.
type numColNode struct {
	idx  int
	i    []int64
	f    []float64
	null []bool
}

func (nc *numColNode) evalNum(b *vec.Batch, n int) (numVec, error) {
	c := &b.Cols[nc.idx]
	switch c.Form {
	case vec.FormInt:
		return numVec{i: gather(c.I, b.Sel, n, &nc.i), null: nullsOf(c, b, n, &nc.null)}, nil
	case vec.FormFloat:
		return numVec{isFloat: true, f: gather(c.F, b.Sel, n, &nc.f), null: nullsOf(c, b, n, &nc.null)}, nil
	default:
		return numVec{}, errVecFallback
	}
}

// numConstNode broadcasts a bare literal, such as MAX(DATE '1998-09-02')'s
// argument. A literal operand of arithmetic (litArithNode) or of a
// comparison, BETWEEN or IN is read as a scalar instead.
type numConstNode struct {
	isFloat bool
	iv      int64
	fv      float64
	i       []int64
	f       []float64
}

func (nc *numConstNode) evalNum(_ *vec.Batch, n int) (numVec, error) {
	if nc.isFloat {
		nc.f = grow(nc.f, n)
		for k := range nc.f {
			nc.f[k] = nc.fv
		}
		return numVec{isFloat: true, f: nc.f}, nil
	}
	nc.i = grow(nc.i, n)
	for k := range nc.i {
		nc.i[k] = nc.iv
	}
	return numVec{i: nc.i}, nil
}

// arithNode is vectorized +, -, * of two vectors with int/float promotion
// (matching expr.arith for INT/FLOAT operands; DATE arithmetic is not
// compiled).
type arithNode struct {
	op     expr.BinOp
	l, r   numNode
	i      []int64
	f      []float64
	lf, rf []float64
	null   []bool
}

func (a *arithNode) evalNum(b *vec.Batch, n int) (numVec, error) {
	lv, err := a.l.evalNum(b, n)
	if err != nil {
		return numVec{}, err
	}
	rv, err := a.r.evalNum(b, n)
	if err != nil {
		return numVec{}, err
	}
	null := mergeNulls(&a.null, lv.null, rv.null, n)
	if !lv.isFloat && !rv.isFloat {
		a.i = grow(a.i, n)
		switch a.op {
		case expr.OpAdd:
			for k := 0; k < n; k++ {
				a.i[k] = lv.i[k] + rv.i[k]
			}
		case expr.OpSub:
			for k := 0; k < n; k++ {
				a.i[k] = lv.i[k] - rv.i[k]
			}
		default:
			for k := 0; k < n; k++ {
				a.i[k] = lv.i[k] * rv.i[k]
			}
		}
		return numVec{i: a.i, null: null}, nil
	}
	a.f = grow(a.f, n)
	lf := lv.asFloats(&a.lf)
	rf := rv.asFloats(&a.rf)
	switch a.op {
	case expr.OpAdd:
		for k := 0; k < n; k++ {
			a.f[k] = lf[k] + rf[k]
		}
	case expr.OpSub:
		for k := 0; k < n; k++ {
			a.f[k] = lf[k] - rf[k]
		}
	default:
		for k := 0; k < n; k++ {
			a.f[k] = lf[k] * rf[k]
		}
	}
	return numVec{isFloat: true, f: a.f, null: null}, nil
}

// litArithNode is +, -, * of a vector and a literal operand, read once as a
// scalar by expr.arith's promotion rule: ints when both are INT, floats
// otherwise, the literal widened once (float64(1) - d is the row path's
// 1.Float() - d, bit for bit).
type litArithNode struct {
	op      expr.BinOp
	e       numNode
	lit     types.Value // INT or FLOAT
	litLeft bool
	i       []int64
	f, ef   []float64
}

func (a *litArithNode) evalNum(b *vec.Batch, n int) (numVec, error) {
	v, err := a.e.evalNum(b, n)
	if err != nil {
		return numVec{}, err
	}
	if !v.isFloat && a.lit.K == types.KindInt {
		a.i = grow(a.i, n)
		arithScalar(a.op, v.i, a.lit.I, a.litLeft, a.i)
		return numVec{i: a.i, null: v.null}, nil
	}
	a.f = grow(a.f, n)
	arithScalar(a.op, v.asFloats(&a.ef), a.lit.Float(), a.litLeft, a.f)
	return numVec{isFloat: true, f: a.f, null: v.null}, nil
}

// arithScalar sets out[k] to xs[k] op c, or to c - xs[k] for a literal on
// the left of -. + and × are commutative, bit for bit, so their literal may
// stand on either side.
func arithScalar[T int64 | float64](op expr.BinOp, xs []T, c T, litLeft bool, out []T) {
	xs = xs[:len(out)]
	switch {
	case op == expr.OpAdd:
		for k, x := range xs {
			out[k] = x + c
		}
	case op == expr.OpMul:
		for k, x := range xs {
			out[k] = x * c
		}
	case litLeft:
		for k, x := range xs {
			out[k] = c - x
		}
	default:
		for k, x := range xs {
			out[k] = x - c
		}
	}
}

// asFloats returns the vector's values as floats, converting ints into the
// provided scratch slice when needed.
func (v numVec) asFloats(scratch *[]float64) []float64 {
	if v.isFloat {
		return v.f
	}
	s := grow(*scratch, len(v.i))
	for k, x := range v.i {
		s[k] = float64(x)
	}
	*scratch = s
	return s
}

// mergeNulls ORs two optional dense null masks into owned scratch.
func mergeNulls(scratch *[]bool, a, b []bool, n int) []bool {
	if a == nil && b == nil {
		return nil
	}
	s := growBools(*scratch, n)
	for k := 0; k < n; k++ {
		s[k] = (a != nil && a[k]) || (b != nil && b[k])
	}
	*scratch = s
	return s
}

func cmpHolds(op expr.BinOp, c int) bool {
	switch op {
	case expr.OpEq:
		return c == 0
	case expr.OpNe:
		return c != 0
	case expr.OpLt:
		return c < 0
	case expr.OpLe:
		return c <= 0
	case expr.OpGt:
		return c > 0
	default:
		return c >= 0
	}
}

// compareVecs sets t[k] to l[k] op r[k].
func compareVecs[T int64 | float64](op expr.BinOp, l, r []T, t []bool) {
	l, r = l[:len(t)], r[:len(t)]
	switch op {
	case expr.OpEq:
		for k := range t {
			t[k] = l[k] == r[k]
		}
	case expr.OpNe:
		for k := range t {
			t[k] = l[k] != r[k]
		}
	case expr.OpLt:
		for k := range t {
			t[k] = l[k] < r[k]
		}
	case expr.OpLe:
		for k := range t {
			t[k] = l[k] <= r[k]
		}
	case expr.OpGt:
		for k := range t {
			t[k] = l[k] > r[k]
		}
	default:
		for k := range t {
			t[k] = l[k] >= r[k]
		}
	}
}

// compareScalar sets t[k] to l[k] op r.
func compareScalar[T int64 | float64](op expr.BinOp, l []T, r T, t []bool) {
	l = l[:len(t)]
	switch op {
	case expr.OpEq:
		for k, x := range l {
			t[k] = x == r
		}
	case expr.OpNe:
		for k, x := range l {
			t[k] = x != r
		}
	case expr.OpLt:
		for k, x := range l {
			t[k] = x < r
		}
	case expr.OpLe:
		for k, x := range l {
			t[k] = x <= r
		}
	case expr.OpGt:
		for k, x := range l {
			t[k] = x > r
		}
	default:
		for k, x := range l {
			t[k] = x >= r
		}
	}
}

// cmpNumNode is a vectorized numeric comparison of two operands. mixed
// selects float comparison, mirroring types.Compare: same-kind INT/DATE
// operands compare by integer payload, cross-kind numeric operands compare
// by Float().
type cmpNumNode struct {
	op     expr.BinOp
	mixed  bool
	l, r   numNode
	t      []bool
	null   []bool
	lf, rf []float64
}

func (cn *cmpNumNode) evalBool(b *vec.Batch, n int) ([]bool, []bool, error) {
	lv, err := cn.l.evalNum(b, n)
	if err != nil {
		return nil, nil, err
	}
	rv, err := cn.r.evalNum(b, n)
	if err != nil {
		return nil, nil, err
	}
	null := mergeNulls(&cn.null, lv.null, rv.null, n)
	cn.t = grow(cn.t, n)
	if !cn.mixed && !lv.isFloat && !rv.isFloat {
		compareVecs(cn.op, lv.i, rv.i, cn.t)
	} else {
		compareVecs(cn.op, lv.asFloats(&cn.lf), rv.asFloats(&cn.rf), cn.t)
	}
	return cn.t, null, nil
}

// scalar is a non-NULL numeric literal as a kernel compares an operand
// against it, by types.Compare's rule: by the integer payload when both are
// INT or both DATE, as floats otherwise.
type scalar struct {
	i       int64
	f       float64
	asFloat bool
}

// newScalar readies literal v for an operand of kind of.
func newScalar(v types.Value, of types.Kind) scalar {
	return scalar{i: v.I, f: v.Float(), asFloat: v.K != of || of == types.KindFloat}
}

// cmpConstNode compares a numeric operand against a literal, read as a
// scalar.
type cmpConstNode struct {
	op  expr.BinOp
	e   numNode
	lit scalar
	t   []bool
	f   []float64
}

func (cn *cmpConstNode) evalBool(b *vec.Batch, n int) ([]bool, []bool, error) {
	v, err := cn.e.evalNum(b, n)
	if err != nil {
		return nil, nil, err
	}
	cn.t = grow(cn.t, n)
	if v.isFloat || cn.lit.asFloat {
		compareScalar(cn.op, v.asFloats(&cn.f), cn.lit.f, cn.t)
	} else {
		compareScalar(cn.op, v.i, cn.lit.i, cn.t)
	}
	return cn.t, v.null, nil
}

// rangeNode is [NOT] BETWEEN a numeric operand and two literal bounds, in
// one pass.
type rangeNode struct {
	e      numNode
	lo, hi scalar
	negate bool
	t      []bool
	f      []float64
}

func within[T int64 | float64](xs []T, lo, hi T, negate bool, t []bool) {
	xs = xs[:len(t)]
	for k, x := range xs {
		t[k] = (x >= lo && x <= hi) != negate
	}
}

func (rn *rangeNode) evalBool(b *vec.Batch, n int) ([]bool, []bool, error) {
	v, err := rn.e.evalNum(b, n)
	if err != nil {
		return nil, nil, err
	}
	t := grow(rn.t, n)
	rn.t = t
	lo, hi := rn.lo, rn.hi
	switch {
	case v.isFloat || (lo.asFloat && hi.asFloat):
		within(v.asFloats(&rn.f), lo.f, hi.f, rn.negate, t)
	case !lo.asFloat && !hi.asFloat:
		within(v.i, lo.i, hi.i, rn.negate, t)
	default:
		// An integer operand with one bound of another kind: each bound
		// compares by its own rule.
		for k, x := range v.i[:n] {
			geLo, leHi := x >= lo.i, x <= hi.i
			if lo.asFloat {
				geLo = float64(x) >= lo.f
			} else {
				leHi = float64(x) <= hi.f
			}
			t[k] = (geLo && leHi) != rn.negate
		}
	}
	return t, v.null, nil
}

// inNumNode is [NOT] IN a list of literals over a numeric operand, in one
// pass: an integer operand matches the literals of its own kind by payload
// (ints) and the others as floats (floats); a float operand matches every
// literal as a float.
type inNumNode struct {
	e      numNode
	ints   []int64
	floats []float64
	negate bool
	t      []bool
}

func (in *inNumNode) evalBool(b *vec.Batch, n int) ([]bool, []bool, error) {
	v, err := in.e.evalNum(b, n)
	if err != nil {
		return nil, nil, err
	}
	t := grow(in.t, n)
	in.t = t
	if v.isFloat {
		for k, x := range v.f[:n] {
			t[k] = slices.Contains(in.floats, x) != in.negate
		}
	} else {
		for k, x := range v.i[:n] {
			t[k] = (slices.Contains(in.ints, x) || slices.Contains(in.floats, float64(x))) != in.negate
		}
	}
	return t, v.null, nil
}

// strLitNode tests a string column against literals. [NOT] IN (and = or <>
// one literal) looks the members up in a dictionary column's dictionary once
// per evaluation — the dictionary grows between page sets — and compares
// each row's code against that small table; a member the dictionary lacks
// matches no row. An ordering comparison, BETWEEN or [NOT] LIKE (holds) is
// asked once per dictionary entry: its verdicts are kept by code for as long
// as the dictionary's contents last (Dict.ID). A boxed column — the strings
// a scan keeps undictionaried — is tested value by value; one holding a
// value of another kind falls back.
type strLitNode struct {
	idx     int
	members []string
	holds   func(s string) bool // nil for IN
	negate  bool
	codes   []int32
	t, null []bool
	memo    []uint8 // holds' verdict by code of the dictionary memoID names: 0 not asked, 1 false, 2 true
	memoID  uint64
}

func (sn *strLitNode) evalBool(b *vec.Batch, n int) ([]bool, []bool, error) {
	c := &b.Cols[sn.idx]
	switch c.Form {
	case vec.FormStr:
	case vec.FormBoxed:
		return sn.evalBoxed(c, b, n)
	default:
		return nil, nil, errVecFallback
	}
	null := nullsOf(c, b, n, &sn.null)
	t := grow(sn.t, n)
	sn.t = t
	if sn.holds != nil {
		memo := sn.verdicts(c.Dict)
		for k := range t {
			if null != nil && null[k] {
				continue // a NULL's code is 0 whatever the dictionary holds, even nothing
			}
			code := c.Codes[b.Index(k)]
			v := memo[code]
			if v == 0 {
				v = 1
				if sn.holds(c.Dict.Str(code)) {
					v = 2
				}
				memo[code] = v
			}
			t[k] = v == 2
		}
		return t, null, nil
	}
	codes := sn.codes[:0]
	var mask uint64 // the members' codes as bits, read while every one is below 64
	small := true
	for _, s := range sn.members {
		if code, ok := c.Dict.Lookup(s); ok {
			codes = append(codes, code)
			mask |= 1 << code
			small = small && code < 64
		}
	}
	sn.codes = codes
	if small {
		for k := range t {
			// A code of 64 or more shifts the mask to 0: no member.
			t[k] = (mask>>uint32(c.Codes[b.Index(k)])&1 != 0) != sn.negate
		}
		return t, null, nil
	}
	for k := range t {
		t[k] = slices.Contains(codes, c.Codes[b.Index(k)]) != sn.negate
	}
	return t, null, nil
}

// verdicts returns holds' verdicts by code of d, one per entry: those kept
// for d's contents, with its entries added since unasked.
func (sn *strLitNode) verdicts(d *vec.Dict) []uint8 {
	if d.ID() != sn.memoID {
		sn.memo, sn.memoID = sn.memo[:0], d.ID()
	}
	if have := len(sn.memo); have < d.Len() {
		sn.memo = slices.Grow(sn.memo, d.Len()-have)[:d.Len()]
		clear(sn.memo[have:])
	}
	return sn.memo
}

// evalBoxed is evalBool over a boxed column.
func (sn *strLitNode) evalBoxed(c *vec.Col, b *vec.Batch, n int) ([]bool, []bool, error) {
	t := grow(sn.t, n)
	sn.t = t
	var null []bool
	for k := range t {
		switch v := c.Vals[b.Index(k)]; v.K {
		case types.KindString:
			if sn.holds != nil {
				t[k] = sn.holds(v.S)
			} else {
				t[k] = slices.Contains(sn.members, v.S) != sn.negate
			}
		case types.KindNull:
			if null == nil {
				null = growBools(sn.null, n)
				sn.null = null
			}
			null[k] = true
		default:
			return nil, nil, errVecFallback
		}
	}
	return t, null, nil
}

// cmpStrColsNode compares two dictionary string columns. When both share
// one dictionary, equality is pure code comparison.
type cmpStrColsNode struct {
	op           expr.BinOp
	li, ri       int
	t, null      []bool
	lnull, rnull []bool
}

func (cs *cmpStrColsNode) evalBool(b *vec.Batch, n int) ([]bool, []bool, error) {
	lc, rc := &b.Cols[cs.li], &b.Cols[cs.ri]
	if lc.Form != vec.FormStr || rc.Form != vec.FormStr {
		return nil, nil, errVecFallback
	}
	null := mergeNulls(&cs.null, nullsOf(lc, b, n, &cs.lnull), nullsOf(rc, b, n, &cs.rnull), n)
	cs.t = growBools(cs.t, n)
	if lc.Dict == rc.Dict && (cs.op == expr.OpEq || cs.op == expr.OpNe) {
		want := cs.op == expr.OpEq
		for k := 0; k < n; k++ {
			i := b.Index(k)
			cs.t[k] = (lc.Codes[i] == rc.Codes[i]) == want
		}
		return cs.t, null, nil
	}
	for k := 0; k < n; k++ {
		if null != nil && null[k] {
			continue
		}
		i := b.Index(k)
		c2 := strings.Compare(lc.Dict.Str(lc.Codes[i]), rc.Dict.Str(rc.Codes[i]))
		cs.t[k] = cmpHolds(cs.op, c2)
	}
	return cs.t, null, nil
}

// logicNode is vectorized AND/OR over {true, false, unknown}: OR, and an AND
// nested under OR or NOT — a scan predicate's top-level AND is its
// conjuncts, each a kernel of its own (conjuncts.filter). Dense evaluation
// of both sides is safe because compiled nodes cannot raise row-level
// evaluation errors (division is never compiled).
type logicNode struct {
	and     bool
	l, r    boolNode
	t, null []bool
}

func (ln *logicNode) evalBool(b *vec.Batch, n int) ([]bool, []bool, error) {
	lt, lnull, err := ln.l.evalBool(b, n)
	if err != nil {
		return nil, nil, err
	}
	// The left result lives in the left child's scratch; evaluating the
	// right child could share nodes only if the tree aliased, which
	// compile never produces, so reading lt afterwards is safe.
	rt, rnull, err := ln.r.evalBool(b, n)
	if err != nil {
		return nil, nil, err
	}
	ln.t = growBools(ln.t, n)
	var null []bool
	for k := 0; k < n; k++ {
		lN := lnull != nil && lnull[k]
		rN := rnull != nil && rnull[k]
		lT := !lN && lt[k]
		rT := !rN && rt[k]
		if ln.and {
			switch {
			case (!lN && !lT) || (!rN && !rT):
				ln.t[k] = false
			case lN || rN:
				if null == nil {
					null = growBools(ln.null, n)
				}
				null[k] = true
			default:
				ln.t[k] = true
			}
		} else {
			switch {
			case lT || rT:
				ln.t[k] = true
			case lN || rN:
				if null == nil {
					null = growBools(ln.null, n)
				}
				null[k] = true
			default:
				ln.t[k] = false
			}
		}
	}
	if null != nil {
		ln.null = null
	}
	return ln.t, null, nil
}

// notNode negates a boolean vector; unknown stays unknown.
type notNode struct {
	e boolNode
	t []bool
}

func (nn *notNode) evalBool(b *vec.Batch, n int) ([]bool, []bool, error) {
	t, null, err := nn.e.evalBool(b, n)
	if err != nil {
		return nil, nil, err
	}
	nn.t = grow(nn.t, n)
	for k := 0; k < n; k++ {
		nn.t[k] = !t[k]
	}
	return nn.t, null, nil
}

// isNullColNode vectorizes `col IS [NOT] NULL`.
type isNullColNode struct {
	idx    int
	negate bool
	t      []bool
}

func (in *isNullColNode) evalBool(b *vec.Batch, n int) ([]bool, []bool, error) {
	c := &b.Cols[in.idx]
	in.t = grow(in.t, n)
	for k := 0; k < n; k++ {
		in.t[k] = c.IsNull(b.Index(k)) != in.negate
	}
	return in.t, nil, nil
}

// boolColNode reads a BOOLEAN column as a predicate.
type boolColNode struct {
	idx     int
	t, null []bool
}

func (bc *boolColNode) evalBool(b *vec.Batch, n int) ([]bool, []bool, error) {
	c := &b.Cols[bc.idx]
	if c.Form != vec.FormInt {
		return nil, nil, errVecFallback
	}
	bc.t = grow(bc.t, n)
	for k := 0; k < n; k++ {
		bc.t[k] = c.I[b.Index(k)] != 0
	}
	return bc.t, nullsOf(c, b, n, &bc.null), nil
}

// conjuncts is a scan predicate compiled one kernel per top-level conjunct
// (expr.Conjuncts), in plan order.
type conjuncts []conjunct

// conjunct is one top-level conjunct's kernel and the table columns it
// reads, ascending.
type conjunct struct {
	node boolNode
	cols []int
}

// compileConjuncts compiles every top-level conjunct of pred, or returns
// nil when one has no kernel: the predicate then runs row by row, whole.
func compileConjuncts(pred expr.Expr, sch types.Schema) conjuncts {
	es := expr.Conjuncts(pred)
	if len(es) == 0 {
		return nil
	}
	cs := make(conjuncts, len(es))
	for i, e := range es {
		if cs[i].node = compileBool(e, sch); cs[i].node == nil {
			return nil
		}
		_, reads, _ := ScanColumns(sch.Len(), []int{}, e) // the columns e reads, emitting none
		for ci, r := range reads {
			if r {
				cs[i].cols = append(cs[i].cols, ci)
			}
		}
	}
	return cs
}

// columnSource supplies a conjunct's columns as conjuncts.filter reaches it:
// the columnar scan's page-set decoder reads them off the set's pages.
type columnSource interface {
	// test evaluates conjunct j on the encoded page when it can: it moves to
	// the front of pos, in order, the positions the conjunct holds on, and
	// reports how many with ok; ok false leaves pos as it was.
	test(j int, pos []int32) (kept int, ok bool, err error)
	// load readies conjunct j's columns in the batch at its active rows
	// (sel; every row for nil).
	load(j int, sel []int32) error
}

// filter narrows b's active rows to those every conjunct holds on, and
// returns their physical positions in out's array, which must not be b.Sel's.
// The first conjunct reads every active row, each later one only the rows
// the earlier ones kept (through b.Sel), so a row leaves at its first FALSE
// or NULL conjunct. Given a source, each conjunct is first offered to its
// test and otherwise has its columns loaded just before its kernel runs;
// without one, b holds every column already. b.Sel is as it was on return.
// An error — errVecFallback from any conjunct included — abandons the whole
// selection.
func (cs conjuncts) filter(b *vec.Batch, out []int32, src columnSource) ([]int32, error) {
	in := b.Sel
	defer func() { b.Sel = in }()
	n := b.Rows()
	out = grow(out, n)
	for k := range out {
		out[k] = int32(b.Index(k))
	}
	for j, c := range cs {
		kept, tested := 0, false
		if src != nil {
			var err error
			if kept, tested, err = src.test(j, out); err == nil && !tested {
				err = src.load(j, b.Sel)
			}
			if err != nil {
				return out[:0], err
			}
		}
		if !tested {
			t, null, err := c.node.evalBool(b, n)
			if err != nil {
				return out[:0], err
			}
			kept = keepTrue(out, t, null)
		}
		if out = out[:kept]; kept == 0 {
			break
		}
		b.Sel, n = out, kept
	}
	return out, nil
}

// keepTrue moves to the front of pos, in order, the entries whose t holds
// and null does not, and returns how many there are.
func keepTrue(pos []int32, t, null []bool) int {
	m := 0
	t = t[:len(pos)]
	if null == nil {
		for k, i := range pos {
			pos[m] = i
			if t[k] {
				m++
			}
		}
		return m
	}
	null = null[:len(pos)]
	for k, i := range pos {
		pos[m] = i
		if t[k] && !null[k] {
			m++
		}
	}
	return m
}

func numericExprKind(k types.Kind) bool {
	return k == types.KindInt || k == types.KindFloat || k == types.KindDate
}

// compileNum compiles an INT/FLOAT/DATE expression to a vectorized node, or
// nil when the shape is unsupported (the caller falls back to row
// evaluation). DATE columns and literals compile — comparisons treat DATE as
// numeric — but DATE operands are deliberately excluded from compiled
// arithmetic so the date±int promotion rules stay in one place (expr.arith).
// Its nodes are not shared: a predicate's kernels each read their own
// selection.
func compileNum(e expr.Expr, sch types.Schema) numNode {
	var unshared *numDAG
	return unshared.compile(e, sch)
}

// numDAG compiles expressions into one kernel DAG: every distinct
// subexpression is one node, evaluated at most once per batch (stamp).
// Nodes are told apart by structure — a column by its index, a literal by its
// kind and payload bits, arithmetic by its operator and operands — never by
// how they print: INT 1 and FLOAT 1 both print 1, and two columns may share
// a name. A nil *numDAG compiles every node afresh.
type numDAG struct {
	nodes map[numKey]numNode
	stamp uint32
}

// numKey is a node's structure.
type numKey struct {
	op      expr.BinOp // arithmetic; 0 for a column or a bare literal
	col     int        // a column's index; -1 otherwise
	lit     types.Kind // a literal's, or a literal operand's, kind; KindNull when none
	bits    uint64     // the literal's payload
	litLeft bool
	l, r    numNode // the vector operands
}

func newNumDAG() *numDAG { return &numDAG{nodes: map[numKey]numNode{}} }

// sharedNum is a node of a numDAG: its result is kept for the batch whose
// stamp it carries.
type sharedNum struct {
	numNode
	dag *numDAG
	at  uint32
	nv  numVec
	err error
}

func (s *sharedNum) evalNum(b *vec.Batch, n int) (numVec, error) {
	if s.at != s.dag.stamp {
		s.nv, s.err = s.numNode.evalNum(b, n)
		s.at = s.dag.stamp
	}
	return s.nv, s.err
}

// intern returns the DAG's node of structure k, made of node when it has
// none.
func (d *numDAG) intern(k numKey, node numNode) numNode {
	if d == nil {
		return node
	}
	if s, ok := d.nodes[k]; ok {
		return s
	}
	s := &sharedNum{numNode: node, dag: d}
	d.nodes[k] = s
	return s
}

// litKey is the structure of arithmetic with literal operand v.
func litKey(op expr.BinOp, v types.Value, litLeft bool, e numNode) numKey {
	bits := uint64(v.I)
	if v.K == types.KindFloat {
		bits = math.Float64bits(v.F)
	}
	return numKey{op: op, col: -1, lit: v.K, bits: bits, litLeft: litLeft, l: e}
}

// compile is compileNum, its nodes interned in d.
func (d *numDAG) compile(e expr.Expr, sch types.Schema) numNode {
	switch x := e.(type) {
	case *expr.Col:
		if x.Index < 0 || x.Index >= sch.Len() {
			return nil
		}
		switch sch.Cols[x.Index].Kind {
		case types.KindInt, types.KindFloat, types.KindDate:
			return d.intern(numKey{col: x.Index}, &numColNode{idx: x.Index})
		}
		return nil
	case *expr.Const:
		switch x.V.K {
		case types.KindInt, types.KindDate:
			return d.intern(litKey(0, x.V, false, nil), &numConstNode{iv: x.V.I})
		case types.KindFloat:
			return d.intern(litKey(0, x.V, false, nil), &numConstNode{isFloat: true, fv: x.V.F})
		}
		return nil
	case *expr.Bin:
		if x.Op != expr.OpAdd && x.Op != expr.OpSub && x.Op != expr.OpMul {
			return nil
		}
		lk, rk := expr.KindOf(x.L, sch), expr.KindOf(x.R, sch)
		if (lk != types.KindInt && lk != types.KindFloat) || (rk != types.KindInt && rk != types.KindFloat) {
			return nil
		}
		operand, lit, litLeft := x.L, x.R, false
		if _, ok := lit.(*expr.Const); !ok {
			operand, lit, litLeft = x.R, x.L, true
		}
		if c, ok := lit.(*expr.Const); ok {
			e := d.compile(operand, sch)
			if e == nil {
				return nil
			}
			return d.intern(litKey(x.Op, c.V, litLeft, e), &litArithNode{op: x.Op, e: e, lit: c.V, litLeft: litLeft})
		}
		l, r := d.compile(x.L, sch), d.compile(x.R, sch)
		if l == nil || r == nil {
			return nil
		}
		return d.intern(numKey{op: x.Op, col: -1, l: l, r: r}, &arithNode{op: x.Op, l: l, r: r})
	}
	return nil
}

// literals returns the values of es when every one is a literal other than
// NULL.
func literals(es []expr.Expr) ([]types.Value, bool) {
	vs := make([]types.Value, len(es))
	for i, e := range es {
		c, ok := e.(*expr.Const)
		if !ok || c.V.IsNull() {
			return nil, false
		}
		vs[i] = c.V
	}
	return vs, true
}

// compileBetween compiles [NOT] BETWEEN with literal bounds to one range
// pass. A NULL bound makes Between.Eval NULL where E >= Lo AND E <= Hi can
// be FALSE — the two differ under NOT — so it, like a bound that is not a
// literal, keeps the row path.
func compileBetween(x *expr.Between, sch types.Schema) boolNode {
	bounds, ok := literals([]expr.Expr{x.Lo, x.Hi})
	if !ok {
		return nil
	}
	lo, hi := bounds[0], bounds[1]
	ek := expr.KindOf(x.E, sch)
	if numericExprKind(ek) && numericExprKind(lo.K) && numericExprKind(hi.K) {
		if e := compileNum(x.E, sch); e != nil {
			return &rangeNode{e: e, lo: newScalar(lo, ek), hi: newScalar(hi, ek), negate: x.Negate}
		}
		return nil
	}
	c, ok := x.E.(*expr.Col)
	if ok && ek == types.KindString && lo.K == types.KindString && hi.K == types.KindString {
		l, h, negate := lo.S, hi.S, x.Negate
		return &strLitNode{idx: c.Index, holds: func(s string) bool { return (s >= l && s <= h) != negate }}
	}
	return nil
}

// compileIn compiles [NOT] IN over a list of literals to one pass. A NULL
// member makes a non-match unknown and an empty list has nothing to
// match: both keep the row path.
func compileIn(x *expr.InList, sch types.Schema) boolNode {
	lits, ok := literals(x.Vals)
	if !ok || len(lits) == 0 {
		return nil
	}
	ek := expr.KindOf(x.E, sch)
	if c, isCol := x.E.(*expr.Col); isCol && ek == types.KindString {
		members := make([]string, len(lits))
		for i, v := range lits {
			if v.K != types.KindString {
				return nil
			}
			members[i] = v.S
		}
		return &strLitNode{idx: c.Index, members: members, negate: x.Negate}
	}
	e := compileNum(x.E, sch)
	if e == nil {
		return nil
	}
	in := &inNumNode{e: e, negate: x.Negate}
	for _, v := range lits {
		if !numericExprKind(v.K) {
			return nil
		}
		if s := newScalar(v, ek); s.asFloat {
			in.floats = append(in.floats, s.f)
		} else {
			in.ints = append(in.ints, s.i)
		}
	}
	return in
}

// compileLike compiles [NOT] LIKE of a string column and a pattern that is
// a string literal, through expr's matcher. A NULL pattern makes every row
// NULL, which the row path gives.
func compileLike(x *expr.Like, sch types.Schema) boolNode {
	c, ok := x.E.(*expr.Col)
	p, lit := x.Pattern.(*expr.Const)
	if !ok || !lit || p.V.K != types.KindString || expr.KindOf(c, sch) != types.KindString {
		return nil
	}
	pattern, negate := p.V.S, x.Negate
	return &strLitNode{idx: c.Index, holds: func(s string) bool { return expr.LikeMatch(s, pattern) != negate }}
}

// compileBool compiles a predicate to a vectorized node, or nil when
// unsupported. CASE, functions, and division inside predicates all take the
// row fallback, as do BETWEEN and IN over anything but non-NULL literals,
// and LIKE over anything but a column and a literal pattern.
func compileBool(e expr.Expr, sch types.Schema) boolNode {
	switch x := e.(type) {
	case *expr.Like:
		return compileLike(x, sch)
	case *expr.Between:
		return compileBetween(x, sch)
	case *expr.InList:
		return compileIn(x, sch)
	case *expr.Col:
		if x.Index >= 0 && x.Index < sch.Len() && sch.Cols[x.Index].Kind == types.KindBool {
			return &boolColNode{idx: x.Index}
		}
		return nil
	case *expr.Not:
		if inner := compileBool(x.E, sch); inner != nil {
			return &notNode{e: inner}
		}
		return nil
	case *expr.IsNull:
		if c, ok := x.E.(*expr.Col); ok && c.Index >= 0 && c.Index < sch.Len() {
			return &isNullColNode{idx: c.Index, negate: x.Negate}
		}
		return nil
	case *expr.Bin:
		if x.Op == expr.OpAnd || x.Op == expr.OpOr {
			l, r := compileBool(x.L, sch), compileBool(x.R, sch)
			if l == nil || r == nil {
				return nil
			}
			return &logicNode{and: x.Op == expr.OpAnd, l: l, r: r}
		}
		if !x.Op.IsComparison() {
			return nil
		}
		lk, rk := expr.KindOf(x.L, sch), expr.KindOf(x.R, sch)
		if numericExprKind(lk) && numericExprKind(rk) {
			op, operand, lit, of := x.Op, x.L, x.R, lk
			if _, ok := lit.(*expr.Const); !ok {
				// A literal on the left compares the other way round: lit < e
				// is e > lit.
				operand, lit, of = x.R, x.L, rk
				switch op {
				case expr.OpLt:
					op = expr.OpGt
				case expr.OpLe:
					op = expr.OpGe
				case expr.OpGt:
					op = expr.OpLt
				case expr.OpGe:
					op = expr.OpLe
				}
			}
			if c, ok := lit.(*expr.Const); ok {
				if e := compileNum(operand, sch); e != nil {
					return &cmpConstNode{op: op, e: e, lit: newScalar(c.V, of)}
				}
				return nil
			}
			l, r := compileNum(x.L, sch), compileNum(x.R, sch)
			if l == nil || r == nil {
				return nil
			}
			return &cmpNumNode{op: x.Op, mixed: lk != rk, l: l, r: r}
		}
		if lk == types.KindString && rk == types.KindString {
			lc, lok := x.L.(*expr.Col)
			if !lok {
				return nil
			}
			switch rv := x.R.(type) {
			case *expr.Const:
				if x.Op == expr.OpEq || x.Op == expr.OpNe {
					return &strLitNode{idx: lc.Index, members: []string{rv.V.S}, negate: x.Op == expr.OpNe}
				}
				op, s := x.Op, rv.V.S
				return &strLitNode{idx: lc.Index, holds: func(v string) bool { return cmpHolds(op, strings.Compare(v, s)) }}
			case *expr.Col:
				return &cmpStrColsNode{op: x.Op, li: lc.Index, ri: rv.Index}
			}
			return nil
		}
		return nil
	}
	return nil
}
