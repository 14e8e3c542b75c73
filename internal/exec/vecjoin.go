package exec

import (
	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vec"
)

// FNV-1a constants mirroring types.Hash / types.HashRow, so typed key
// hashing produces exactly the values the boxed path would (integral floats
// collide with ints on purpose — numeric equality must imply hash equality).
const (
	fnvRowOffset  = 1469598103934665603
	fnvHashOffset = 14695981039346656037
	fnvPrime      = 1099511628211
)

// hashI64 is types.Hash of a fixed-width payload: FNV-1a over its eight
// little-endian bytes.
func hashI64(u uint64) uint64 {
	h := uint64(fnvHashOffset)
	for i := 0; i < 8; i++ {
		h ^= (u >> (8 * i)) & 0xff
		h *= fnvPrime
	}
	return h
}

// hashColVal hashes position i of a column without boxing, matching
// types.Hash on the boxed value. The second result reports NULL.
func hashColVal(c *vec.Col, i int) (uint64, bool) {
	if c.Form != vec.FormBoxed && vec.GetBit(c.Nulls, i) {
		return 0, true
	}
	switch c.Form {
	case vec.FormInt:
		return hashI64(uint64(c.I[i])), false
	case vec.FormFloat:
		f := c.F[i]
		if f == float64(int64(f)) {
			return hashI64(uint64(int64(f))), false
		}
		return hashI64(uint64(int64(f * 1e6))), false
	case vec.FormStr:
		return c.Dict.Hash(c.Codes[i]), false
	default:
		v := c.Vals[i]
		if v.K == types.KindNull {
			return 0, true
		}
		return types.Hash(v), false
	}
}

// appendColRows appends the src values at physical indices idx to dst,
// preserving typed layouts: fixed-width payloads copy unboxed, dictionary
// codes are remapped into dst's dictionary (or copied when the dictionary
// is shared), and mismatched layouts fall back to boxed append.
func appendColRows(dst, src *vec.Col, idx []int32) {
	switch {
	case dst.Form == vec.FormInt && src.Form == vec.FormInt && dst.Kind == src.Kind:
		for _, i := range idx {
			if src.IsNull(int(i)) {
				dst.AppendNull()
			} else {
				dst.AppendInt(src.I[i])
			}
		}
	case dst.Form == vec.FormFloat && src.Form == vec.FormFloat:
		for _, i := range idx {
			if src.IsNull(int(i)) {
				dst.AppendNull()
			} else {
				dst.AppendFloat(src.F[i])
			}
		}
	case dst.Form == vec.FormStr && src.Form == vec.FormStr:
		if dst.Dict == src.Dict {
			for _, i := range idx {
				if src.IsNull(int(i)) {
					dst.AppendNull()
				} else {
					dst.AppendCode(src.Codes[i])
				}
			}
			return
		}
		remap := make([]int32, src.Dict.Len())
		for t := range remap {
			remap[t] = -1
		}
		for _, i := range idx {
			if src.IsNull(int(i)) {
				dst.AppendNull()
				continue
			}
			code := src.Codes[i]
			m := remap[code]
			if m < 0 {
				m = dst.Dict.Code(src.Dict.Str(code))
				remap[code] = m
			}
			dst.AppendCode(m)
		}
	default:
		for _, i := range idx {
			dst.Append(src.Value(int(i)))
		}
	}
}

// vecJoinCmp compares one probe/build key column pair, specialized per
// probe batch to the layouts actually present.
type vecJoinCmp struct {
	pc, bc *vec.Col
	mode   uint8 // 0 generic boxed, 1 int64, 2 float64, 3 shared-dict codes, 4 remapped codes
	remap  []int32
}

// equal reports key equality between probe row i and build row j under
// types.Compare semantics. Callers guarantee neither side is NULL on the
// typed modes (NULL keys never reach candidate comparison).
func (c *vecJoinCmp) equal(i, j int) bool {
	switch c.mode {
	case 1:
		return c.pc.I[i] == c.bc.I[j]
	case 2:
		return c.pc.F[i] == c.bc.F[j]
	case 3:
		return c.pc.Codes[i] == c.bc.Codes[j]
	case 4:
		code := c.pc.Codes[i]
		m := c.remap[code]
		if m == -1 {
			if bcode, ok := c.bc.Dict.Lookup(c.pc.Dict.Str(code)); ok {
				m = bcode
			} else {
				m = -2
			}
			c.remap[code] = m
		}
		return m >= 0 && m == c.bc.Codes[j]
	default:
		av, bv := c.pc.Value(i), c.bc.Value(j)
		if av.K == types.KindNull || bv.K == types.KindNull {
			return false
		}
		return types.Compare(av, bv) == 0
	}
}

// VecHashJoin is the vector-native hash join: the build side accumulates
// into dense typed columns, the hash table maps key hashes to build row
// indices (no boxed key rows), and probing compares typed payloads —
// dictionary strings by code when the dictionary is shared, through a
// per-batch code remap otherwise. Matched (probe, build) index pairs gather
// column-wise into the output batch.
//
// Semantics mirror HashJoin: NULL keys never match (Anti still outputs the
// unmatched probe row), residual predicates evaluate over the concatenated
// boxed pair, and a build side exceeding the MemRows budget falls back to
// the row HashJoin mid-stream — accumulated build rows are materialized and
// prefixed to the remaining build stream, so the Grace spill path takes
// over without re-reading the input. Probing is serial; shapes with
// non-column keys fall back to the row join at construction.
type VecHashJoin struct {
	vecRowShim   // src, and the ctx the join meters into
	probe, build VecOperator
	probeKeys    []expr.Expr
	buildKeys    []expr.Expr
	pk, bk       []int
	jt           JoinType
	residual     expr.Expr
	parallel     int
	out          types.Schema
	np, nb       int

	bt       *vec.Batch
	table    map[uint64][]int32
	prepared bool
	done     bool
	fb       VecOperator // mid-stream overflow fallback

	cmps     []vecJoinCmp
	pis, bis []int32
	idxs     []int32
	ob       *vec.Batch
	joined   types.Row
}

// NewVecHashJoin builds a vector hash join over vector inputs. Key shapes
// the typed path cannot handle (non-column key expressions) fall back to
// the row HashJoin behind adapters, so the constructor is total.
func NewVecHashJoin(ctx *Ctx, probe, build VecOperator, probeKeys, buildKeys []expr.Expr, jt JoinType, residual expr.Expr, parallel int) VecOperator {
	pk, ok1 := colIndices(probeKeys, probe.Schema().Len())
	bk, ok2 := colIndices(buildKeys, build.Schema().Len())
	if !ok1 || !ok2 || len(pk) != len(bk) {
		return ToVec(NewHashJoin(ctx, probe, build, probeKeys, buildKeys, jt, residual, parallel))
	}
	j := &VecHashJoin{
		probe: probe, build: build,
		probeKeys: probeKeys, buildKeys: buildKeys, pk: pk, bk: bk,
		jt: jt, residual: residual, parallel: parallel,
	}
	j.np = probe.Schema().Len()
	j.nb = build.Schema().Len()
	if jt == JoinInner {
		j.out = probe.Schema().Concat(build.Schema())
	} else {
		j.out = probe.Schema()
	}
	j.cmps = make([]vecJoinCmp, len(pk))
	j.vecRowShim = vecRowShim{src: j, ctx: ctx}
	return j
}

// colIndices resolves key expressions to column indices; reports false when
// any key is not a plain column reference.
func colIndices(keys []expr.Expr, n int) ([]int, bool) {
	out := make([]int, len(keys))
	for i, k := range keys {
		c, ok := k.(*expr.Col)
		if !ok || c.Index < 0 || c.Index >= n {
			return nil, false
		}
		out[i] = c.Index
	}
	return out, true
}

// Schema implements Operator.
func (j *VecHashJoin) Schema() types.Schema { return j.out }

// Open implements Operator.
func (j *VecHashJoin) Open() error {
	j.bt, j.table, j.prepared, j.done, j.fb = nil, nil, false, false, nil
	if err := j.probe.Open(); err != nil {
		return err
	}
	return j.build.Open()
}

// Close implements Operator.
func (j *VecHashJoin) Close() error {
	if j.fb != nil {
		// The fallback adopted both input streams; closing it closes them.
		return j.fb.Close()
	}
	err1 := j.probe.Close()
	err2 := j.build.Close()
	if err1 != nil {
		return err1
	}
	return err2
}

// NextVec implements VecOperator.
func (j *VecHashJoin) NextVec() (*vec.Batch, bool, error) {
	if !j.prepared {
		if err := j.prepareBuild(); err != nil {
			return nil, false, err
		}
	}
	if j.fb != nil {
		return j.fb.NextVec()
	}
	if j.done {
		return nil, false, nil
	}
	if j.ob == nil {
		j.ob = vec.New(j.out)
	}
	j.ob.Reset()
	target := j.ctx.batchRows()
	for j.ob.N < target {
		b, ok, err := j.probe.NextVec()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			j.done = true
			break
		}
		if err := j.processProbe(b); err != nil {
			return nil, false, err
		}
	}
	if j.ob.N == 0 {
		return nil, false, nil
	}
	return j.ob, true, nil
}

// prepareBuild drains the build side into dense typed columns and indexes
// build rows by key hash. Build rows with a NULL key are stored (they are
// part of the accumulated columns) but never indexed — NULL keys cannot
// match.
func (j *VecHashJoin) prepareBuild() error {
	budget := 0
	if j.ctx != nil {
		budget = j.ctx.MemRows
	}
	j.bt = vec.New(j.build.Schema())
	for {
		b, ok, err := j.build.NextVec()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		n := b.Rows()
		if n == 0 {
			continue
		}
		if j.ctx != nil {
			j.ctx.RowsProcessed.Add(int64(n))
			j.ctx.addState(int64(n) * int64(16*len(j.bt.Cols)))
		}
		idx := b.Sel
		if idx == nil {
			idx = j.denseIdx(b.N)
		}
		for ci := range j.bt.Cols {
			appendColRows(&j.bt.Cols[ci], &b.Cols[ci], idx)
		}
		j.bt.N += len(idx)
		if budget > 0 && j.bt.N > budget {
			return j.overflow()
		}
	}
	j.table = make(map[uint64][]int32, j.bt.N)
	for r := 0; r < j.bt.N; r++ {
		h := uint64(fnvRowOffset)
		null := false
		for _, t := range j.bk {
			hv, isNull := hashColVal(&j.bt.Cols[t], r)
			if isNull {
				null = true
				break
			}
			h = h*fnvPrime ^ hv
		}
		if !null {
			j.table[h] = append(j.table[h], int32(r))
		}
	}
	j.prepared = true
	return nil
}

// overflow hands the join to the row HashJoin mid-stream: the accumulated
// build rows are materialized and unioned in front of the rest of the
// (already open) build stream, so the row join's Grace spill machinery sees
// every build row exactly once.
func (j *VecHashJoin) overflow() error {
	rows := j.bt.Materialize(nil)
	j.bt = nil
	buildOp := NewUnion(&Source{Sch: j.build.Schema(), Rows: rows, batch: j.ctx.batchRows()}, openedOp{j.build})
	hj := NewHashJoin(j.ctx, openedOp{j.probe}, buildOp, j.probeKeys, j.buildKeys, j.jt, j.residual, j.parallel)
	if err := hj.Open(); err != nil {
		return err
	}
	j.fb = ToVec(hj)
	j.prepared = true
	return nil
}

// denseIdx returns [0, n) as a reusable selection slice.
func (j *VecHashJoin) denseIdx(n int) []int32 {
	for len(j.idxs) < n {
		j.idxs = append(j.idxs, int32(len(j.idxs)))
	}
	return j.idxs[:n]
}

// processProbe probes one batch and gathers matches into the output batch.
func (j *VecHashJoin) processProbe(b *vec.Batch) error {
	n := b.Rows()
	if n == 0 {
		return nil
	}
	if j.ctx != nil {
		j.ctx.RowsProcessed.Add(int64(n))
	}

	// Specialize the key comparators to this batch's column layouts.
	for t := range j.cmps {
		c := &j.cmps[t]
		c.pc, c.bc = &b.Cols[j.pk[t]], &j.bt.Cols[j.bk[t]]
		switch {
		case c.pc.Form == vec.FormInt && c.bc.Form == vec.FormInt && c.pc.Kind == c.bc.Kind:
			c.mode = 1
		case c.pc.Form == vec.FormFloat && c.bc.Form == vec.FormFloat:
			c.mode = 2
		case c.pc.Form == vec.FormStr && c.bc.Form == vec.FormStr:
			if c.pc.Dict == c.bc.Dict {
				c.mode, c.remap = 3, nil
			} else {
				c.mode = 4
				dl := c.pc.Dict.Len()
				if cap(c.remap) < dl {
					c.remap = make([]int32, dl)
				} else {
					c.remap = c.remap[:dl]
				}
				for x := range c.remap {
					c.remap[x] = -1
				}
			}
		default:
			c.mode = 0
		}
	}

	if j.joined == nil {
		j.joined = make(types.Row, j.np+j.nb)
	}
	j.pis, j.bis = j.pis[:0], j.bis[:0]
	for k := 0; k < n; k++ {
		i := b.Index(k)
		h := uint64(fnvRowOffset)
		null := false
		for t := range j.cmps {
			hv, isNull := hashColVal(j.cmps[t].pc, i)
			if isNull {
				null = true
				break
			}
			h = h*fnvPrime ^ hv
		}
		matched := false
		if !null {
			probeBoxed := false
			for _, cand := range j.table[h] {
				bi := int(cand)
				eq := true
				for t := range j.cmps {
					if !j.cmps[t].equal(i, bi) {
						eq = false
						break
					}
				}
				if !eq {
					continue
				}
				if j.residual != nil {
					if !probeBoxed {
						b.ReadRow(i, j.joined[:j.np])
						probeBoxed = true
					}
					j.bt.ReadRow(bi, j.joined[j.np:])
					ok, err := expr.EvalBool(j.residual, j.joined)
					if err != nil {
						return err
					}
					if !ok {
						continue
					}
				}
				matched = true
				if j.jt == JoinInner {
					j.pis = append(j.pis, int32(i))
					j.bis = append(j.bis, cand)
				} else {
					break
				}
			}
		}
		if j.jt == JoinSemi && matched {
			j.pis = append(j.pis, int32(i))
		}
		if j.jt == JoinAnti && !matched {
			j.pis = append(j.pis, int32(i))
		}
	}
	if len(j.pis) == 0 {
		return nil
	}
	for t := 0; t < j.np; t++ {
		appendColRows(&j.ob.Cols[t], &b.Cols[t], j.pis)
	}
	if j.jt == JoinInner {
		for t := 0; t < j.nb; t++ {
			appendColRows(&j.ob.Cols[j.np+t], &j.bt.Cols[t], j.bis)
		}
	}
	j.ob.N += len(j.pis)
	return nil
}

// openedOp wraps an already-open stream so a fallback plan can adopt it:
// Open is a no-op (re-opening would restart or duplicate the stream);
// everything else passes through.
type openedOp struct{ Operator }

// Open implements Operator as a no-op.
func (openedOp) Open() error { return nil }
