package exec

import (
	"bytes"
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
	"repro/internal/vec"
)

// vecScanFragment builds a small columnar fragment with every slab form the
// typed decoders handle — ints, dates, floats, dictionary strings — plus
// NULL runs on two columns and a string column distinct in every row, which
// chains over three or so overflow pages per set. The first Load and a Flush
// write every set; the trailing Load leaves its rows in the open sets so
// scans cover both the written and the open decode paths.
func vecScanFragment(t *testing.T) (*storage.ColumnarFragment, []types.Row) {
	t.Helper()
	sch := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "qty", Kind: types.KindInt},
		types.Column{Name: "price", Kind: types.KindFloat},
		types.Column{Name: "status", Kind: types.KindString},
		types.Column{Name: "ship", Kind: types.KindDate},
		types.Column{Name: "note", Kind: types.KindString},
	)
	fr := openColumnar(t, "vscan", sch)
	mk := func(i int64) types.Row {
		r := types.Row{
			types.NewInt(i),
			types.NewInt(i % 100),
			types.NewFloat(float64(i%997) * 1.5),
			types.NewString(fmt.Sprintf("STATUS-%d", i%6)),
			types.NewDate(10_000 + i%365),
			types.NewString(fmt.Sprintf("note %d, of its own", i*7919)),
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
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := int64(1500); i < 1509; i++ {
		rows = append(rows, mk(i))
	}
	if _, err := fr.Load(rows[1500:]); err != nil {
		t.Fatal(err)
	}
	return fr, rows
}

// openColumnar opens an empty columnar fragment of 1 KiB pages.
func openColumnar(t *testing.T, name string, sch types.Schema) *storage.ColumnarFragment {
	t.Helper()
	ns, err := storage.NewNodeStore(storage.NodeConfig{
		NodeID: 0, BaseDir: t.TempDir(), NumDisks: 2,
		PageSize: 1024, BufFrames: 512, BufStripes: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	def := &catalog.TableDef{
		Name:     name,
		Schema:   sch,
		Columnar: true,
		Part:     catalog.Partitioning{Kind: catalog.PartHash, Cols: []string{"id"}},
	}
	fr, err := storage.OpenColumnarFragment(ns, def)
	if err != nil {
		t.Fatal(err)
	}
	return fr
}

// codeSpaceFragment builds a columnar fragment whose rows come in four
// blocks of 1,000, each wider than a page set, so that the layout a column's
// page takes changes from set to set:
//   - grade (INT) has five distinct values and NULLs in blocks 0 and 2,
//     sealing into the dictionary layout, and a distinct value per row in
//     blocks 1 and 3, sealing fixed-width;
//   - rate (FLOAT) is a dictionary with a NULL entry throughout;
//   - tag (STRING) is a dictionary with a NULL entry whose strings block b
//     alone holds (T-4b to T-4b+3);
//   - m (INT) is a dictionary of 50 values throughout.
func codeSpaceFragment(t *testing.T) *storage.ColumnarFragment {
	t.Helper()
	sch := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "grade", Kind: types.KindInt},
		types.Column{Name: "rate", Kind: types.KindFloat},
		types.Column{Name: "tag", Kind: types.KindString},
		types.Column{Name: "m", Kind: types.KindInt},
	)
	fr := openColumnar(t, "codes", sch)
	var rows []types.Row
	for i := int64(0); i < 4000; i++ {
		block := i / 1000
		r := types.Row{
			types.NewInt(i),
			types.NewInt(i * 13),
			types.NewFloat(float64(i%4) * 0.25),
			types.NewString(fmt.Sprintf("T-%d", 4*block+i%4)),
			types.NewInt(i % 50),
		}
		if block%2 == 0 {
			r[1] = types.NewInt(i % 5 * 1_000_003)
			if i%9 == 4 {
				r[1] = types.Null
			}
		}
		if i%7 == 2 {
			r[2] = types.Null
		}
		if i%11 == 5 {
			r[3] = types.Null
		}
		rows = append(rows, r)
	}
	if _, err := fr.Load(rows); err != nil {
		t.Fatal(err)
	}
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	return fr
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
		snd := newRowCopier(sf.port(), sf.sch.Len(), sf.batch)
		_, err := fr.ScanPageSets(storage.ScanOptions{}, nil, 1, func(_ int, set page.PageSet) (bool, error) {
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
					return true, storage.ErrStopScan
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
// evaluation against the boxed reference decode and against a row Filter
// above an unfiltered scan on the same fragment, for predicates that hit
// every slab kind, for one with no vector kernel (LIKE), which the scan
// evaluates row-wise over the predicate's columns, and for conjuncts tested
// in code space over pages whose layout changes from set to set.
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
		// note is emitted, so its predicate column interns into the building
		// batch's dictionary, which grows page set by page set: a member
		// first seen in a later set of the same batch must still match there.
		"string-in-growing-dictionary": func() expr.Expr {
			var members []expr.Expr
			for _, i := range []int64{3, 300, 700, 1400, 1505} {
				members = append(members, cs(fmt.Sprintf("note %d, of its own", i*7919)))
			}
			return in(ncol(5, "note"), false, members...)
		},
	}
	for name, pred := range preds {
		t.Run(name, func(t *testing.T) {
			want := boxedScanRows(t, fr, pred())
			if len(want) == 0 {
				t.Fatal("baseline predicate selected nothing — test is vacuous")
			}

			ctx := NewCtx("", 0)
			got, err := Collect(NewVecColumnarScan(fr, "", ScanConfig{Pred: pred(), Ctx: ctx}))
			if err != nil {
				t.Fatal(err)
			}
			assertSameRows(t, got, want)
			if typed := ctx.DecodeTypedPages.Load(); typed == 0 {
				t.Error("pushdown scan decoded no typed pages")
			}

			// Same predicate applied by a Filter above an unfiltered scan: the
			// late-materialized selection must agree with post-hoc filtering.
			fctx := NewCtx("", 0)
			wrapped := NewFilter(fctx, NewVecColumnarScan(fr, "", ScanConfig{Ctx: fctx}), pred())
			got2, err := Collect(wrapped)
			if err != nil {
				t.Fatal(err)
			}
			assertSameRows(t, got2, want)
		})
	}

	// LIKE has no vector kernel: the result must still match the boxed
	// reference, and the rows the predicate saw are metered as filter work.
	like := func() expr.Expr {
		return &expr.Like{E: ncol(3, "status"), Pattern: cs("%-4")}
	}
	want := boxedScanRows(t, fr, like())
	ctx := NewCtx("", 0)
	got, err := Collect(NewVecColumnarScan(fr, "", ScanConfig{Pred: like(), Ctx: ctx}))
	if err != nil {
		t.Fatal(err)
	}
	assertSameRows(t, got, want)
	if n := ctx.RowsProcessed.Load(); n != 1509 {
		t.Errorf("uncompiled predicate metered %d rows, want all 1509", n)
	}

	// Conjuncts tested in code space, on the dictionary pages of some sets
	// and not of others, and the columns of later conjuncts decoded at the
	// rows still kept.
	cfr := codeSpaceFragment(t)
	id, grade, rate, tag, m := ncol(0, "id"), ncol(1, "grade"), ncol(2, "rate"), ncol(3, "tag"), ncol(4, "m")
	substr := func(e expr.Expr, from, n int64, members ...expr.Expr) expr.Expr {
		return in(&expr.Func{Name: "SUBSTRING", Args: []expr.Expr{e, ci(from), ci(n)}}, false, members...)
	}
	for _, c := range []struct {
		name     string
		pred     expr.Expr
		cols     []int // emitted; nil: every column
		fallback bool  // the row expression decides the sets
		lean     bool  // fewer typed pages than 3 a set: where the first conjunct keeps no row, only its column is read
	}{
		// grade's one conjunct is tested in code space in blocks 0 and 2 and
		// decoded at rate's survivors in blocks 1 and 3.
		{"dict-in-one-set-fixed-in-the-next", and(&expr.Bin{Op: expr.OpGe, L: rate, R: cf(0.25)},
			&expr.Bin{Op: expr.OpOr, L: in(grade, false, ci(1_000_003), ci(3_000_009)), R: gt(grade, ci(40_000))}), nil, false, false},
		// No set before block 3 holds a member: the lookup must find none
		// there, and both in block 3's sets.
		{"string-in-members-in-later-sets", and(in(tag, false, cs("T-13"), cs("T-14")), gt(id, ci(3_100))), nil, false, false},
		// tag is emitted but only ever tested in code space: its cells
		// decode at the survivors only.
		{"emitted-column-tested-only", and(in(tag, true, cs("T-1"), cs("T-6")), lt(rate, cf(0.6))), []int{3, 0}, false, false},
		// Outside block 2 the first conjunct keeps no row, and the others'
		// columns are never decoded (see the page count below).
		{"first-conjunct-keeps-none", and(and(eq(tag, cs("T-9")), lt(rate, cf(0.6))), lt(id, ci(2_900))), []int{3}, false, true},
		// q22's shape: SUBSTRING … IN has no kernel, so the row expression
		// decides every set, over all four predicate columns in full.
		{"conjunct-without-kernel", and(and(in(tag, false, cs("T-8"), cs("T-9"), cs("T-10")), gt(id, ci(2_050))),
			and(lt(m, ci(30)), substr(tag, 3, 1, cs("8"), cs("1")))), []int{0, 3}, true, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			whole := boxedScanRows(t, cfr, c.pred)
			if len(whole) == 0 {
				t.Fatal("baseline predicate selected nothing — test is vacuous")
			}
			want := whole
			if c.cols != nil {
				want = make([]types.Row, len(whole))
				for i, r := range whole {
					want[i] = r.Project(c.cols)
				}
			}
			ctx := NewCtx("", 0)
			sp := obs.NewQueryTrace(1, "").StartSpan("Scan", 0)
			defer sp.Finish()
			got, err := Collect(NewVecColumnarScan(cfr, "", ScanConfig{Pred: c.pred, Cols: c.cols, Trace: sp, Ctx: ctx}))
			if err != nil {
				t.Fatal(err)
			}
			assertSameRows(t, got, want)
			if sets, typed := sp.SetsRead.Load(), ctx.DecodeTypedPages.Load(); c.lean && typed >= 3*sets {
				t.Errorf("%d typed pages over %d page sets: the later conjuncts' columns were read where no row was left", typed, sets)
			}
			if rowSets := ctx.PredRowSets.Load(); (rowSets != 0) != c.fallback {
				t.Errorf("%d page sets on the row expression, want them only where a conjunct has no kernel (%v)", rowSets, c.fallback)
			}
			if n := ctx.RowsProcessed.Load(); n != 4000 {
				t.Errorf("the predicate metered %d rows, want all 4000", n)
			}
		})
	}
}

// TestScansRefuseAForeignCell: a column holds only its own kind — storage
// refuses another — so a page holding a cell of another kind is corrupt. A
// columnar scan over a column page — tagged, Huffman-packed, or a
// dictionary — and a row scan over a row page, each hand-built with a STRING
// among an INT column's cells, return an error and no rows, with no
// predicate, with a kernel on the column and with a conjunct a dictionary
// page is tested in code space for.
func TestScansRefuseAForeignCell(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	sch := types.NewSchema(types.Column{Name: "id", Kind: types.KindInt}, types.Column{Name: "n", Kind: types.KindInt})
	rows := make([]types.Row, 40)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewInt(int64(i % 4))}
	}
	bad := types.NewString("four")
	preds := map[string]expr.Expr{
		"no predicate": nil,
		"kernel":       gt(ncol(1, "n"), ci(1)),
		"code space":   in(ncol(1, "n"), false, ci(1), ci(3)),
	}
	open := func(columnar bool) (*storage.NodeStore, *catalog.TableDef) {
		ns, err := storage.NewNodeStore(storage.NodeConfig{BaseDir: t.TempDir(), NumDisks: 1, PageSize: 1024, BufFrames: 64, BufStripes: 2})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ns.Close() })
		return ns, &catalog.TableDef{Name: "t", Schema: sch, Columnar: columnar,
			Part: catalog.Partitioning{Kind: catalog.PartHash, Cols: []string{"id"}}}
	}
	refused := func(name string, scan func(pred expr.Expr) Operator) {
		t.Helper()
		for pname, pred := range preds {
			if got, err := Collect(scan(pred)); err == nil || len(got) != 0 {
				t.Errorf("%s, %s: %d rows, err %v; want an error and no rows", name, pname, len(got), err)
			}
		}
	}
	// The n page of the one written set, rewritten: cell 7 a string, left
	// tagged or sealed (mixed kinds pack), or the INT cells sealed into a
	// dictionary whose entry for 0 is then retagged as the empty string.
	for _, layout := range []string{"tagged", "packed", "dict"} {
		ns, def := open(true)
		fr, err := storage.OpenColumnarFragment(ns, def)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fr.Load(rows); err != nil {
			t.Fatal(err)
		}
		if err := fr.Flush(); err != nil {
			t.Fatal(err)
		}
		f, err := ns.Buf.Fetch(page.Key{File: fr.Files[0], Page: 1})
		if err != nil {
			t.Fatal(err)
		}
		vals, err := page.ColumnPage{Buf: f.Buf}.Values()
		if err != nil || len(vals) != len(rows) {
			t.Fatalf("the n page holds %d values (%v)", len(vals), err)
		}
		if layout != "dict" {
			vals[7] = bad
		}
		clear(f.Buf)
		cp := page.InitColumnPage(f.Buf)
		for _, v := range vals {
			if !cp.Append(v) {
				t.Fatal("the rewritten page does not fit")
			}
		}
		if layout != "tagged" {
			cp.Seal()
		}
		if layout == "dict" {
			// The entries INT 0, 1, 2, 3 in types.AppendValue's encoding;
			// a STRING tag over INT 0's two bytes reads as "".
			at := bytes.Index(f.Buf, []byte{byte(types.KindInt), 0, byte(types.KindInt), 2, byte(types.KindInt), 4, byte(types.KindInt), 6})
			if at < 0 {
				t.Fatal("the sealed page holds no dictionary of 0 to 3")
			}
			f.Buf[at] = byte(types.KindString)
			if _, err := cp.DictEntries(&vec.Col{Kind: types.KindInt, Form: vec.FormInt}); err == nil {
				t.Fatal("the dictionary's entries read as INTs")
			}
		}
		ns.Buf.Unpin(f, true)
		refused("columnar, "+layout, func(pred expr.Expr) Operator {
			return NewVecColumnarScan(fr, "", ScanConfig{Pred: pred, Parallel: 1})
		})
	}
	// A row appended to the one row page as encoded bytes.
	ns, def := open(false)
	fr, err := storage.OpenFragment(ns, def)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fr.Load(rows); err != nil {
		t.Fatal(err)
	}
	f, err := ns.Buf.Fetch(page.Key{File: fr.Files[0], Page: 0})
	if err != nil {
		t.Fatal(err)
	}
	rp, err := page.AsRowPage(f.Buf)
	if err != nil || rp.LiveRows() != len(rows) {
		t.Fatalf("the row page holds %d rows (%v)", rp.LiveRows(), err)
	}
	if _, ok := rp.InsertEncoded(types.AppendRow(nil, types.Row{types.NewInt(40), bad})); !ok {
		t.Fatal("the row page is full")
	}
	ns.Buf.Unpin(f, true)
	refused("row", func(pred expr.Expr) Operator {
		return NewRowScan(fr, "", ScanConfig{Pred: pred, Parallel: 1})
	})
}

// TestVecScanParallelParity runs the pushdown scan serially and with a
// 4-worker morsel-parallel decode and demands identical row multisets.
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
		cfg := ScanConfig{Pred: pred(), Parallel: parallel, Ctx: ctx}
		out, err := Collect(NewVecColumnarScan(fr, "", cfg))
		if err != nil {
			t.Fatal(err)
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
		out, err := Collect(NewVecColumnarScan(fr, "", cfg))
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
		"pushdown": gt(ncol(1, "qty"), ci(40)),
		// No vector kernel: evaluated row-wise in the scan.
		"row-pred": &expr.Like{E: ncol(3, "status"), Pattern: cs("%-4")},
	}
	for name, pred := range preds {
		for _, degree := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/degree-%d", name, degree), func(t *testing.T) {
				cause := errors.New("killed by test")
				c := NewCancel()
				c.Kill(cause)
				ctx := NewCtx("", 0)
				ctx.BatchRows = 16
				cfg := ScanConfig{Pred: pred, Ctx: ctx.Child(c), Parallel: degree}
				rows, err := Collect(NewVecColumnarScan(fr, "", cfg))
				if !errors.Is(err, cause) {
					t.Fatalf("rows=%d err=%v, want the kill cause", len(rows), err)
				}
			})
		}
	}
}

// TestVecScanProjectionParity: a scan that emits some of the table's
// columns returns, for every combination of emitted set and predicate
// (compiled or not, over emitted columns or others, strings included), the
// boxed reference's rows narrowed to those columns; its output schema is
// the narrowed one, its span says how many columns it read, and a row scan
// narrows the same way.
func TestVecScanProjectionParity(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	fr, _ := vecScanFragment(t)
	preds := map[string]func() expr.Expr{
		"none":             func() expr.Expr { return nil },
		"int-range":        func() expr.Expr { return and(gt(ncol(1, "qty"), ci(40)), lt(ncol(2, "price"), cf(700))) },
		"string-eq":        func() expr.Expr { return &expr.Bin{Op: expr.OpEq, L: ncol(3, "status"), R: cs("STATUS-3")} },
		"like-uncompiled":  func() expr.Expr { return &expr.Like{E: ncol(3, "status"), Pattern: cs("%-4")} },
		"isnull-and-month": func() expr.Expr { return and(&expr.IsNull{E: ncol(2, "price")}, gt(ncol(4, "ship"), ci(10_200))) },
	}
	for name, pred := range preds {
		whole := boxedScanRows(t, fr, pred())
		if len(whole) == 0 {
			t.Fatalf("%s selected nothing — test is vacuous", name)
		}
		for _, cols := range [][]int{{0}, {1, 2}, {3}, {0, 3, 4}, {2, 4}, {}, {5}, {1, 5}, {0, 1, 2, 3, 4, 5}} {
			for _, parallel := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/cols=%v/degree-%d", name, cols, parallel), func(t *testing.T) {
					want := make([]types.Row, len(whole))
					for i, r := range whole {
						want[i] = r.Project(cols)
					}
					ctx := NewCtx("", 0)
					ctx.SetParallelBudget(parallel)
					ctx.BatchRows = 100
					sp := obs.NewQueryTrace(1, "").StartSpan("Scan", 0)
					defer sp.Finish()
					op := NewVecColumnarScan(fr, "v", ScanConfig{Pred: pred(), Cols: cols, Parallel: parallel, Trace: sp, Ctx: ctx})
					if got, want := op.Schema(), fr.Def.Schema.Qualify("v").Project(cols); got.String() != want.String() {
						t.Fatalf("schema %s, want %s", got, want)
					}
					got, err := Collect(op)
					if err != nil {
						t.Fatal(err)
					}
					assertSameRows(t, got, want)
					// Read set = emitted ∪ predicate columns.
					read := map[int]bool{}
					for _, c := range cols {
						read[c] = true
					}
					expr.Walk(pred(), func(x expr.Expr) {
						if c, ok := x.(*expr.Col); ok {
							read[c.Index] = true
						}
					})
					if r, n := sp.ColsRead.Load(), sp.ColsTotal.Load(); int(r) != len(read) || n != 6 {
						t.Errorf("span cols=%d/%d, want %d/6", r, n, len(read))
					}
				})
			}
		}
	}
}
