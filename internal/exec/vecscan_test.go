package exec

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/obs"
	"repro/internal/page"
	"repro/internal/storage"
	"repro/internal/testutil"
	"repro/internal/types"
)

// vecScanFragment builds a small columnar fragment with every slab form the
// typed decoders handle — ints, dates, floats, dictionary strings — plus
// NULL runs on two columns. Loading seals full page sets; the trailing
// Appends leave rows in the open (unsealed, unpacked) sets so scans cover
// both the sealed and the open decode paths.
func vecScanFragment(t *testing.T) (*storage.ColumnarFragment, []types.Row) {
	t.Helper()
	ns, err := storage.NewNodeStore(storage.NodeConfig{
		NodeID: 0, BaseDir: t.TempDir(), NumDisks: 2,
		PageSize: 1024, BufFrames: 512, BufStripes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	sch := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "qty", Kind: types.KindInt},
		types.Column{Name: "price", Kind: types.KindFloat},
		types.Column{Name: "status", Kind: types.KindString},
		types.Column{Name: "ship", Kind: types.KindDate},
	)
	def := &catalog.TableDef{
		Name:     "vscan",
		Schema:   sch,
		Columnar: true,
		Part:     catalog.Partitioning{Kind: catalog.PartHash, Cols: []string{"id"}},
	}
	fr, err := storage.OpenColumnarFragment(ns, def)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(i int64) types.Row {
		r := types.Row{
			types.NewInt(i),
			types.NewInt(i % 100),
			types.NewFloat(float64(i%997) * 1.5),
			types.NewString(fmt.Sprintf("STATUS-%d", i%6)),
			types.NewDate(10_000 + i%365),
		}
		if i%7 == 0 {
			r[1] = types.Null
		}
		if i%5 == 0 {
			r[2] = types.Null
		}
		return r
	}
	rows := make([]types.Row, 0, 1509)
	for i := int64(0); i < 1500; i++ {
		rows = append(rows, mk(i))
	}
	if _, err := fr.Load(rows); err != nil {
		t.Fatal(err)
	}
	for i := int64(1500); i < 1509; i++ {
		r := mk(i)
		if err := fr.Append(r); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, r)
	}
	return fr, rows
}

// boxedColumnarScan is the independent reference the vector scan is compared
// against, as an operator: a scan thread decodes every page set of the
// fragment with the boxed PageSet.Rows decoder and filters every row with
// expr.EvalBool. It shares nothing with VecColumnarScan above storage's
// page-set iteration and the feed.
func boxedColumnarScan(fr *storage.ColumnarFragment, alias string, pred expr.Expr) Operator {
	sf := &rowFeed{}
	sf.sch = fr.Def.Schema
	if alias != "" {
		sf.sch = sf.sch.Qualify(alias)
	}
	sf.start = func() error {
		snd := sf.rowSender()
		_, err := fr.ScanPageSets(storage.ScanOptions{}, 1, func(_ int, set page.PageSet, _ page.Key, _ bool) (bool, error) {
			rows, err := set.Rows()
			if err != nil {
				return false, err
			}
			for _, r := range rows {
				if pred != nil {
					keep, err := expr.EvalBool(pred, r)
					if err != nil {
						return false, err
					}
					if !keep {
						continue
					}
				}
				if !snd.send(r) {
					return false, nil
				}
			}
			return true, nil
		})
		snd.flush()
		return err
	}
	return sf
}

func boxedScanRows(t testing.TB, fr *storage.ColumnarFragment, pred expr.Expr) []types.Row {
	t.Helper()
	out, err := Collect(boxedColumnarScan(fr, "", pred))
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func ncol(i int, name string) *expr.Col { return &expr.Col{Index: i, Name: name} }

func and(l, r expr.Expr) *expr.Bin { return &expr.Bin{Op: expr.OpAnd, L: l, R: r} }

// TestVecScanPushdownParity golden-compares the decode-time predicate
// pushdown path against the boxed reference decode and the VecFilter
// fallback on the same fragment, for predicates that hit every slab kind.
// The compilable predicates must run natively inside the scan (no VecFilter
// wrapper), the non-compilable one must get the wrapper.
func TestVecScanPushdownParity(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	fr, _ := vecScanFragment(t)
	preds := map[string]func() expr.Expr{
		"int-range": func() expr.Expr {
			return and(gt(ncol(1, "qty"), ci(40)), lt(ncol(2, "price"), cf(700)))
		},
		"isnull": func() expr.Expr {
			return &expr.IsNull{E: ncol(2, "price")}
		},
		"notnull-and-date": func() expr.Expr {
			// Date consts don't compile (date arithmetic stays in expr.arith);
			// a date column against an int const takes the mixed numeric kernel.
			return and(&expr.IsNull{E: ncol(1, "qty"), Negate: true},
				gt(ncol(4, "ship"), ci(10_200)))
		},
		"string-eq": func() expr.Expr {
			return &expr.Bin{Op: expr.OpEq, L: ncol(3, "status"), R: cs("STATUS-3")}
		},
	}
	for name, pred := range preds {
		t.Run(name, func(t *testing.T) {
			want := boxedScanRows(t, fr, pred())
			if len(want) == 0 {
				t.Fatal("baseline predicate selected nothing — test is vacuous")
			}

			ctx := NewCtx("", 0)
			op := NewVecColumnarScan(fr, "", ScanConfig{Pred: pred(), Ctx: ctx})
			if _, ok := op.(*VecColumnarScan); !ok {
				t.Fatalf("compilable predicate must push down into the scan, got %T", op)
			}
			got, err := Collect(op)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRows(t, got, want)
			if typed := ctx.DecodeTypedPages.Load(); typed == 0 {
				t.Error("pushdown scan decoded no typed pages")
			}
			if boxed := ctx.DecodeBoxedPages.Load(); boxed != 0 {
				t.Errorf("pushdown scan fell back to boxed decode on %d pages", boxed)
			}

			// Same predicate applied above an unfiltered vector scan: the
			// late-materialized selection must agree with post-hoc filtering.
			fctx := NewCtx("", 0)
			wrapped := NewVecFilter(fctx, NewVecColumnarScan(fr, "", ScanConfig{Ctx: fctx}), pred())
			got2, err := Collect(wrapped)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRows(t, got2, want)
		})
	}

	// LIKE has no vector kernel: the constructor must hand back a VecFilter
	// wrapper, and the result must still match the boxed reference.
	like := func() expr.Expr {
		return &expr.Like{E: ncol(3, "status"), Pattern: cs("%-4")}
	}
	want := boxedScanRows(t, fr, like())
	ctx := NewCtx("", 0)
	op := NewVecColumnarScan(fr, "", ScanConfig{Pred: like(), Ctx: ctx})
	if _, ok := op.(*VecFilter); !ok {
		t.Fatalf("non-compilable predicate must wrap in VecFilter, got %T", op)
	}
	got, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, got, want)
}

// TestVecScanParallelParity runs the pushdown scan serially and with a
// 4-worker morsel-parallel decode and demands identical row multisets and
// a zero boxed-page count on both.
func TestVecScanParallelParity(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	fr, _ := vecScanFragment(t)
	pred := func() expr.Expr {
		return and(gt(ncol(1, "qty"), ci(20)), lt(ncol(1, "qty"), ci(80)))
	}
	run := func(parallel, batchRows int) []types.Row {
		ctx := NewCtx("", 0)
		ctx.SetParallelBudget(parallel)
		ctx.BatchRows = batchRows
		cfg := ScanConfig{Pred: pred(), BatchRows: batchRows, Parallel: parallel, Ctx: ctx}
		op := NewVecColumnarScan(fr, "", cfg)
		if _, ok := op.(*VecColumnarScan); !ok {
			t.Fatalf("predicate must push down, got %T", op)
		}
		out, err := Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		if boxed := ctx.DecodeBoxedPages.Load(); boxed != 0 {
			t.Errorf("parallel=%d: %d boxed page decodes", parallel, boxed)
		}
		return out
	}
	want := run(1, 256)
	if len(want) == 0 {
		t.Fatal("predicate selected nothing — test is vacuous")
	}
	for _, batch := range []int{1, 64, 1024} {
		got := run(4, batch)
		assertSameRows(t, got, want)
	}
}

// TestVecScanNoPredFullDecode checks the predicate-free path: every row
// comes back exactly once, typed, across serial and parallel scans.
func TestVecScanNoPredFullDecode(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	fr, rows := vecScanFragment(t)
	for _, parallel := range []int{1, 4} {
		ctx := NewCtx("", 0)
		ctx.SetParallelBudget(parallel)
		got, err := Collect(NewVecColumnarScan(fr, "", ScanConfig{Parallel: parallel, Ctx: ctx}))
		if err != nil {
			t.Fatal(err)
		}
		assertSameRows(t, got, rows)
		if boxed := ctx.DecodeBoxedPages.Load(); boxed != 0 {
			t.Errorf("parallel=%d: %d boxed page decodes", parallel, boxed)
		}
	}
}

// TestVecScanAbsenceRecording scans with a complete skip-expressible
// predicate that matches nothing: the first pushdown scan must feed the
// predicate cache (empty selections recorded at decode time), so a repeat
// scan skips page sets without touching them.
func TestVecScanAbsenceRecording(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	fr, _ := vecScanFragment(t)
	pred := func() expr.Expr { return gt(ncol(1, "qty"), ci(1_000_000)) }
	// The scan's page counters are read from its span, where EXPLAIN ANALYZE
	// reads them.
	scan := func() (pagesRead, pagesSkipped int64) {
		sp := obs.NewQueryTrace(1, "").StartSpan("Scan", 0)
		defer sp.Finish()
		cfg := ScanConfig{Pred: pred(), UseSkipCache: true, Trace: sp, Ctx: NewCtx("", 0)}
		op := NewVecColumnarScan(fr, "", cfg)
		if _, ok := op.(*VecColumnarScan); !ok {
			t.Fatalf("predicate must push down, got %T", op)
		}
		out, err := Collect(op)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 0 {
			t.Fatalf("impossible predicate returned %d rows", len(out))
		}
		return sp.PagesRead.Load(), sp.PagesSkipped.Load()
	}
	firstRead, _ := scan()
	if firstRead == 0 {
		t.Fatal("first scan read nothing")
	}
	if _, skipped := scan(); skipped == 0 {
		t.Fatalf("repeat scan skipped nothing (first read %d pages)", firstRead)
	}
}

// TestVecScanKilledReturnsCause: a killed vector scan stops producing
// mid-stream, and the truncated stream must end in the kill cause — never in
// a clean exhaustion that reads as an empty (or short) table. At the parent
// commit this returned rows=0 err=<nil>.
func TestVecScanKilledReturnsCause(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	fr, _ := vecScanFragment(t)
	preds := map[string]expr.Expr{
		"pushdown":  gt(ncol(1, "qty"), ci(40)),
		"vecfilter": &expr.Like{E: ncol(3, "status"), Pattern: cs("%-4")},
	}
	for name, pred := range preds {
		for _, degree := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/degree-%d", name, degree), func(t *testing.T) {
				cause := errors.New("killed by test")
				c := NewCancel()
				c.Kill(cause)
				cfg := ScanConfig{Pred: pred, Ctx: NewCtx("", 0).Child(c), BatchRows: 16, Parallel: degree}
				op := NewVecColumnarScan(fr, "", cfg)
				if _, wrapped := op.(*VecFilter); wrapped != (name == "vecfilter") {
					t.Fatalf("constructor returned %T", op)
				}
				rows, err := Collect(op)
				if !errors.Is(err, cause) {
					t.Fatalf("rows=%d err=%v, want the kill cause", len(rows), err)
				}
			})
		}
	}
}
