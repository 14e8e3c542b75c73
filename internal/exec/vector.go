package exec

import (
	"errors"
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

// vecRowShim gives VecColumnarScan its Operator face by materializing row
// slabs from its NextVec, charging the rows to BoxedRows. The scan sets src
// to itself, and ctx, in its constructor.
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
// cannot handle (e.g. a demoted boxed column); the operator re-evaluates
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
// null masks (SQL three-valued logic: null[k] overrides t[k]).
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

func growInts(s []int64, n int) []int64 {
	if cap(s) < n {
		return make([]int64, n)
	}
	return s[:n]
}

func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// numColNode gathers a typed numeric column through the selection vector.
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
		if b.Sel == nil && len(c.Nulls) == 0 {
			return numVec{i: c.I[:n]}, nil // zero-copy passthrough
		}
		nc.i = growInts(nc.i, n)
		var null []bool
		for k := 0; k < n; k++ {
			i := b.Index(k)
			nc.i[k] = c.I[i]
			if c.IsNull(i) {
				if null == nil {
					null = growBools(nc.null, n)
				}
				null[k] = true
			}
		}
		if null != nil {
			nc.null = null
		}
		return numVec{i: nc.i, null: null}, nil
	case vec.FormFloat:
		if b.Sel == nil && len(c.Nulls) == 0 {
			return numVec{isFloat: true, f: c.F[:n]}, nil
		}
		nc.f = growFloats(nc.f, n)
		var null []bool
		for k := 0; k < n; k++ {
			i := b.Index(k)
			nc.f[k] = c.F[i]
			if c.IsNull(i) {
				if null == nil {
					null = growBools(nc.null, n)
				}
				null[k] = true
			}
		}
		if null != nil {
			nc.null = null
		}
		return numVec{isFloat: true, f: nc.f, null: null}, nil
	default:
		return numVec{}, errVecFallback
	}
}

// numConstNode broadcasts a literal.
type numConstNode struct {
	isFloat bool
	iv      int64
	fv      float64
	i       []int64
	f       []float64
}

func (nc *numConstNode) evalNum(_ *vec.Batch, n int) (numVec, error) {
	if nc.isFloat {
		nc.f = growFloats(nc.f, n)
		for k := range nc.f {
			nc.f[k] = nc.fv
		}
		return numVec{isFloat: true, f: nc.f}, nil
	}
	nc.i = growInts(nc.i, n)
	for k := range nc.i {
		nc.i[k] = nc.iv
	}
	return numVec{i: nc.i}, nil
}

// arithNode is vectorized +, -, * with int/float promotion (matching
// expr.arith for INT/FLOAT operands; DATE arithmetic is not compiled).
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
		a.i = growInts(a.i, n)
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
	a.f = growFloats(a.f, n)
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

// asFloats returns the vector's values as floats, converting ints into the
// provided scratch slice when needed.
func (v numVec) asFloats(scratch *[]float64) []float64 {
	if v.isFloat {
		return v.f
	}
	s := growFloats(*scratch, len(v.i))
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

// cmpNumNode is a vectorized numeric comparison. mixed selects float
// comparison, mirroring types.Compare: same-kind INT/DATE operands compare
// by integer payload, cross-kind numeric operands compare by Float().
type cmpNumNode struct {
	op     expr.BinOp
	mixed  bool
	l, r   numNode
	t      []bool
	null   []bool
	lf, rf []float64
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
	cn.t = growBools(cn.t, n)
	if !cn.mixed && !lv.isFloat && !rv.isFloat {
		li, ri := lv.i, rv.i
		switch cn.op {
		case expr.OpEq:
			for k := 0; k < n; k++ {
				cn.t[k] = li[k] == ri[k]
			}
		case expr.OpNe:
			for k := 0; k < n; k++ {
				cn.t[k] = li[k] != ri[k]
			}
		case expr.OpLt:
			for k := 0; k < n; k++ {
				cn.t[k] = li[k] < ri[k]
			}
		case expr.OpLe:
			for k := 0; k < n; k++ {
				cn.t[k] = li[k] <= ri[k]
			}
		case expr.OpGt:
			for k := 0; k < n; k++ {
				cn.t[k] = li[k] > ri[k]
			}
		default:
			for k := 0; k < n; k++ {
				cn.t[k] = li[k] >= ri[k]
			}
		}
		return cn.t, null, nil
	}
	lf := lv.asFloats(&cn.lf)
	rf := rv.asFloats(&cn.rf)
	switch cn.op {
	case expr.OpEq:
		for k := 0; k < n; k++ {
			cn.t[k] = lf[k] == rf[k]
		}
	case expr.OpNe:
		for k := 0; k < n; k++ {
			cn.t[k] = lf[k] != rf[k]
		}
	case expr.OpLt:
		for k := 0; k < n; k++ {
			cn.t[k] = lf[k] < rf[k]
		}
	case expr.OpLe:
		for k := 0; k < n; k++ {
			cn.t[k] = lf[k] <= rf[k]
		}
	case expr.OpGt:
		for k := 0; k < n; k++ {
			cn.t[k] = lf[k] > rf[k]
		}
	default:
		for k := 0; k < n; k++ {
			cn.t[k] = lf[k] >= rf[k]
		}
	}
	return cn.t, null, nil
}

// cmpStrConstNode compares a dictionary string column against a literal.
// Equality tests resolve the literal to a code once per batch; ordering
// tests compare dictionary strings per row (still unboxed).
type cmpStrConstNode struct {
	op   expr.BinOp
	idx  int
	s    string
	t    []bool
	null []bool
}

func (cs *cmpStrConstNode) evalBool(b *vec.Batch, n int) ([]bool, []bool, error) {
	c := &b.Cols[cs.idx]
	if c.Form != vec.FormStr {
		return nil, nil, errVecFallback
	}
	cs.t = growBools(cs.t, n)
	var null []bool
	for k := 0; k < n; k++ {
		if c.IsNull(b.Index(k)) {
			if null == nil {
				null = growBools(cs.null, n)
			}
			null[k] = true
		}
	}
	if null != nil {
		cs.null = null
	}
	switch cs.op {
	case expr.OpEq, expr.OpNe:
		code, found := c.Dict.Lookup(cs.s)
		want := cs.op == expr.OpEq
		for k := 0; k < n; k++ {
			cs.t[k] = (found && c.Codes[b.Index(k)] == code) == want
		}
	default:
		for k := 0; k < n; k++ {
			if null != nil && null[k] {
				continue // a NULL's code is 0 whatever the dictionary holds, even nothing
			}
			c2 := strings.Compare(c.Dict.Str(c.Codes[b.Index(k)]), cs.s)
			cs.t[k] = cmpHolds(cs.op, c2)
		}
	}
	return cs.t, null, nil
}

// cmpStrColsNode compares two dictionary string columns. When both share
// one dictionary, equality is pure code comparison.
type cmpStrColsNode struct {
	op      expr.BinOp
	li, ri  int
	t, null []bool
}

func (cs *cmpStrColsNode) evalBool(b *vec.Batch, n int) ([]bool, []bool, error) {
	lc, rc := &b.Cols[cs.li], &b.Cols[cs.ri]
	if lc.Form != vec.FormStr || rc.Form != vec.FormStr {
		return nil, nil, errVecFallback
	}
	cs.t = growBools(cs.t, n)
	var null []bool
	for k := 0; k < n; k++ {
		i := b.Index(k)
		if lc.IsNull(i) || rc.IsNull(i) {
			if null == nil {
				null = growBools(cs.null, n)
			}
			null[k] = true
		}
	}
	if null != nil {
		cs.null = null
	}
	shared := lc.Dict == rc.Dict
	if shared && (cs.op == expr.OpEq || cs.op == expr.OpNe) {
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

// logicNode is vectorized AND/OR over {true, false, unknown}. Dense
// evaluation of both sides is safe because compiled nodes cannot raise
// row-level evaluation errors (division is never compiled).
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
	nn.t = growBools(nn.t, n)
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
	in.t = growBools(in.t, n)
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
	bc.t = growBools(bc.t, n)
	var null []bool
	for k := 0; k < n; k++ {
		i := b.Index(k)
		bc.t[k] = c.I[i] != 0
		if c.IsNull(i) {
			if null == nil {
				null = growBools(bc.null, n)
			}
			null[k] = true
		}
	}
	if null != nil {
		bc.null = null
	}
	return bc.t, null, nil
}

func numericExprKind(k types.Kind) bool {
	return k == types.KindInt || k == types.KindFloat || k == types.KindDate
}

// compileNum compiles an INT/FLOAT/DATE expression to a vectorized node, or
// nil when the shape is unsupported (the caller falls back to row
// evaluation). DATE columns and literals compile — comparisons treat DATE as
// numeric — but DATE operands are deliberately excluded from compiled
// arithmetic so the date±int promotion rules stay in one place (expr.arith).
func compileNum(e expr.Expr, sch types.Schema) numNode {
	switch x := e.(type) {
	case *expr.Col:
		if x.Index < 0 || x.Index >= sch.Len() {
			return nil
		}
		switch sch.Cols[x.Index].Kind {
		case types.KindInt, types.KindFloat, types.KindDate:
			return &numColNode{idx: x.Index}
		}
		return nil
	case *expr.Const:
		switch x.V.K {
		case types.KindInt, types.KindDate:
			return &numConstNode{iv: x.V.I}
		case types.KindFloat:
			return &numConstNode{isFloat: true, fv: x.V.F}
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
		l, r := compileNum(x.L, sch), compileNum(x.R, sch)
		if l == nil || r == nil {
			return nil
		}
		return &arithNode{op: x.Op, l: l, r: r}
	}
	return nil
}

// nonNullConst reports whether e is a literal other than NULL.
func nonNullConst(e expr.Expr) bool {
	c, ok := e.(*expr.Const)
	return ok && !c.V.IsNull()
}

// compileBool compiles a predicate to a vectorized node, or nil when
// unsupported. LIKE, CASE, functions, and division inside predicates all
// take the row fallback, as do BETWEEN and IN over anything but non-NULL
// literals.
func compileBool(e expr.Expr, sch types.Schema) boolNode {
	switch x := e.(type) {
	case *expr.Between:
		// E >= Lo AND E <= Hi, for literal bounds only: Between.Eval is NULL
		// on a NULL bound where the conjunction can be FALSE, and the two
		// differ under NOT.
		if !nonNullConst(x.Lo) || !nonNullConst(x.Hi) {
			return nil
		}
		n := compileBool(&expr.Bin{Op: expr.OpAnd,
			L: &expr.Bin{Op: expr.OpGe, L: x.E, R: x.Lo},
			R: &expr.Bin{Op: expr.OpLe, L: x.E, R: x.Hi}}, sch)
		if n != nil && x.Negate {
			n = &notNode{e: n}
		}
		return n
	case *expr.InList:
		// The OR of E = v over the list. A NULL member makes a non-match
		// unknown and an empty list has no equality to OR: both stay on the
		// row path.
		var n boolNode
		for _, v := range x.Vals {
			if !nonNullConst(v) {
				return nil
			}
			eq := compileBool(&expr.Bin{Op: expr.OpEq, L: x.E, R: v}, sch)
			if eq == nil {
				return nil
			}
			if n == nil {
				n = eq
			} else {
				n = &logicNode{l: n, r: eq}
			}
		}
		if n != nil && x.Negate {
			n = &notNode{e: n}
		}
		return n
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
				if rv.V.K == types.KindString {
					return &cmpStrConstNode{op: x.Op, idx: lc.Index, s: rv.V.S}
				}
			case *expr.Col:
				return &cmpStrColsNode{op: x.Op, li: lc.Index, ri: rv.Index}
			}
			return nil
		}
		return nil
	}
	return nil
}
