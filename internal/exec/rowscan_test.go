package exec

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/page"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/types"
)

// rowScanFragment loads a row fragment that holds every kind, NULLs in every
// column, strings long enough to need a two-byte length, and tombstones: a
// third of the rows is deleted after the load.
func rowScanFragment(t *testing.T) (*storage.Fragment, types.Schema) {
	t.Helper()
	sch := types.NewSchema(
		types.Column{Name: "c0", Kind: types.KindInt},
		types.Column{Name: "c1", Kind: types.KindFloat},
		types.Column{Name: "c2", Kind: types.KindString},
		types.Column{Name: "c3", Kind: types.KindDate},
		types.Column{Name: "c4", Kind: types.KindBool},
		types.Column{Name: "c5", Kind: types.KindString},
	)
	ns, err := storage.NewNodeStore(storage.NodeConfig{
		NodeID: 0, BaseDir: t.TempDir(), NumDisks: 2,
		PageSize: 4096, BufFrames: 256, BufStripes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	fr, err := storage.OpenFragment(ns, &catalog.TableDef{Name: "t", Schema: sch})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1500
	rids := make([]page.RID, n)
	for i := 0; i < n; i++ {
		r := types.Row{
			types.NewInt(int64(i)),
			types.NewFloat(float64(i%97) * 1.25),
			types.NewString(fmt.Sprintf("s%d", i%13)),
			types.NewDate(int64(9000 + i%400)),
			types.NewBool(i%3 == 0),
			types.NewString(strings.Repeat(string(rune('a'+i%26)), 150+i%60)),
		}
		r[i%7%len(r)] = types.Null // a NULL in every column, row after row
		if i%11 == 0 {
			r[1] = types.Null
		}
		if rids[i], err = fr.Insert(nil, r); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i += 3 {
		if ok, err := fr.Delete(nil, rids[i]); err != nil || !ok {
			t.Fatalf("delete row %d: %v %v", i, ok, err)
		}
	}
	return fr, sch
}

// valueKey renders a value exactly: kind and every payload bit.
func valueKey(v types.Value) string {
	return fmt.Sprintf("%d|%d|%x|%q", v.K, v.I, math.Float64bits(v.F), v.S)
}

func rowKeys(rows []types.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = valueKey(v)
		}
		out[i] = strings.Join(parts, " ")
	}
	sort.Strings(out)
	return out
}

// TestRowScanParity: a row scan decodes only the columns it emits and its
// predicate reads, typed, one string column dictionary-coded and the other
// boxed, and emits those columns of the rows that pass. Its output, boxed,
// must equal a whole-row decode of every live row, filtered and then
// projected, for every emitted-column list (all, none, one, each) and
// predicate (none, one over columns it does not emit, a skippable one, LIKE
// and NOT LIKE over both string layouts), with the predicate cache off and
// on (twice, so the second scan skips what the first recorded), at degree 1
// and 4, in slabs of seven rows. Every row of every slab must still hold its values after the
// scan has ended, and be capped at its width.
func TestRowScanParity(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	fr, sch := rowScanFragment(t)
	var whole []types.Row
	if _, err := fr.Scan(storage.ScanOptions{}, func(_ page.RID, r types.Row) (bool, error) {
		whole = append(whole, r)
		return true, nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(whole) != 1000 {
		t.Fatalf("test premise broken: %d live rows, want 1000", len(whole))
	}
	and := func(l, r expr.Expr) expr.Expr { return &expr.Bin{Op: expr.OpAnd, L: l, R: r} }
	lt := func(l, r expr.Expr) expr.Expr { return &expr.Bin{Op: expr.OpLt, L: l, R: r} }
	preds := []struct {
		name string
		pred func() expr.Expr
	}{
		{"none", func() expr.Expr { return nil }},
		{"unemitted", func() expr.Expr { // c1 and c4: emitted by no list but "all"
			return and(lt(col(1), &expr.Const{V: types.NewFloat(60)}), eq(col(4), &expr.Const{V: types.NewBool(true)}))
		}},
		{"skippable", func() expr.Expr { return gt(col(0), ci(1200)) }},
		{"like", func() expr.Expr { // c2 dictionary-coded, c5 boxed
			return and(&expr.Like{E: col(2), Pattern: cs("s1%")}, &expr.Like{E: col(5), Pattern: cs("a%"), Negate: true})
		}},
	}
	boxed := []bool{5: true}
	for _, cols := range [][]int{nil, {}, {5}, {0, 2}, {0, 1, 2, 3, 4, 5}} {
		for _, p := range preds {
			var want []types.Row
			for _, r := range whole {
				if pred := p.pred(); pred != nil {
					if keep, err := expr.EvalBool(pred, r); err != nil || !keep {
						continue
					}
				}
				if cols == nil {
					want = append(want, r)
				} else {
					want = append(want, r.Project(cols))
				}
			}
			wantKeys := rowKeys(want)
			width := len(sch.Cols)
			if cols != nil {
				width = len(cols)
			}
			for _, cache := range []bool{false, true} {
				for _, degree := range []int{1, 4} {
					name := fmt.Sprintf("cols=%v/pred=%s/cache=%v/degree=%d", cols, p.name, cache, degree)
					for pass := 0; pass < 2; pass++ {
						ctx := NewCtx(t.TempDir(), 0)
						ctx.SetParallelBudget(degree)
						ctx.BatchRows = 7
						sc := NewRowScan(fr, "t", ScanConfig{Pred: p.pred(), Cols: cols, Boxed: boxed, UseSkipCache: cache, Parallel: degree, Ctx: ctx})
						if err := sc.Open(); err != nil {
							t.Fatal(err)
						}
						var kept []types.Row
						var seen []string // each row's key as its slab arrived
						for {
							slab, ok, err := sc.NextBatch()
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if !ok {
								break
							}
							for _, r := range slab {
								if len(r) != width || cap(r) != width {
									t.Fatalf("%s: row of len %d cap %d, want %d", name, len(r), cap(r), width)
								}
							}
							kept = append(kept, slab...)
							seen = append(seen, rowKeys(slab)...)
						}
						sc.Close()
						sort.Strings(seen)
						got := rowKeys(kept)
						for i := range got {
							if i < len(seen) && got[i] != seen[i] {
								t.Fatalf("%s pass %d: a row changed after its slab arrived: %s, was %s", name, pass, got[i], seen[i])
							}
						}
						if len(got) != len(wantKeys) {
							t.Fatalf("%s pass %d: %d rows, want %d", name, pass, len(got), len(wantKeys))
						}
						for i := range got {
							if got[i] != wantKeys[i] {
								t.Fatalf("%s pass %d: row %s, want %s", name, pass, got[i], wantKeys[i])
							}
						}
					}
				}
			}
		}
	}
	if hits, _ := fr.PredCache.Stats(); hits == 0 {
		t.Error("test premise broken: no scan skipped a page by the predicate cache")
	}
}
