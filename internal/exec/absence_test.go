package exec

import (
	"fmt"
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/page"
	"repro/internal/skipcache"
	"repro/internal/storage"
	"repro/internal/types"
)

// absenceRows are the rows of the absence test: v is 0 but for one row on
// each disk in every other block of 400, where it is 1000; the rows after
// 2400 never pass v > 900, so a file's last row page and a disk's open set
// hold no passing row either. k is wide, so that a sealed page of it holds
// a few hundred rows at most and the rows fill many page sets.
func absenceRows() []types.Row {
	rows := make([]types.Row, 3000)
	for i := range rows {
		v := int64(0)
		if i < 2400 && (i/400)%2 == 1 && (i%400 == 123 || i%400 == 124) {
			v = 1000
		}
		rows[i] = types.Row{types.NewInt(int64(i) << 40), types.NewInt(v), types.NewString(fmt.Sprintf("s%d", i%7))}
	}
	return rows
}

// absenceStore is a fresh two-disk node of small pages, so that the rows
// fill many pages and page sets, and the definition of the table, in the
// given format.
func absenceStore(t *testing.T, columnar bool) (*storage.NodeStore, *catalog.TableDef) {
	t.Helper()
	ns, err := storage.NewNodeStore(storage.NodeConfig{NodeID: 0, BaseDir: t.TempDir(), NumDisks: 2, PageSize: 1024, BufFrames: 256, BufStripes: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ns.Close() })
	return ns, &catalog.TableDef{Name: "a", Schema: absenceSchema, Columnar: columnar}
}

var absenceSchema = types.NewSchema(
	types.Column{Name: "k", Kind: types.KindInt},
	types.Column{Name: "v", Kind: types.KindInt},
	types.Column{Name: "s", Kind: types.KindString},
)

// TestScansRecordExactlyTheEmptyUnits runs the two table formats' scan
// operators, at degrees 1 and 4, over a cold predicate cache and requires
// it to hold afterwards exactly the units — full row pages, sealed page
// sets — on which no row passes a complete predicate: not a file's last row
// page, not a disk's open set, not a unit in which a row passed, and nothing
// at all for a predicate whose skip conjunction is incomplete. Which units
// those are is worked out here from the pages themselves.
func TestScansRecordExactlyTheEmptyUnits(t *testing.T) {
	v := ncol(1, "v")
	complete := gt(v, ci(900))
	incomplete := and(gt(v, ci(900)), &expr.Like{E: ncol(2, "s"), Pattern: cs("%3")})
	passes := func(r types.Row) bool { return r[1].Int() > 900 }
	rows := absenceRows()

	type format struct {
		name  string
		cache **skipcache.Cache // the fragment's predicate cache
		units map[page.Key]bool // every unit the rule may record: key → no row passes
		scan  func(cfg ScanConfig) Operator
	}
	var formats []format

	// Row table: a page's rows are read through RIDs; every page but a
	// file's last is full.
	{
		ns, def := absenceStore(t, false)
		fr, err := storage.OpenFragment(ns, def)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fr.Load(rows); err != nil {
			t.Fatal(err)
		}
		passed := map[page.Key]bool{}
		if _, err := fr.Scan(storage.ScanOptions{}, func(rid page.RID, r types.Row) (bool, error) {
			k := page.Key{File: fr.Files[rid.Disk], Page: rid.Page}
			passed[k] = passed[k] || passes(r)
			return true, nil
		}); err != nil {
			t.Fatal(err)
		}
		units := map[page.Key]bool{}
		for _, file := range fr.Files {
			last := ns.NumPages(file) - 1
			if passed[page.Key{File: file, Page: last}] {
				t.Fatalf("test premise broken: a row passes on the last page of file %d", file)
			}
			for p := uint32(0); p < last; p++ {
				k := page.Key{File: file, Page: p}
				units[k] = !passed[k]
			}
		}
		formats = append(formats, format{"row", &fr.PredCache, units,
			func(cfg ScanConfig) Operator { return NewRowScan(fr, "", cfg) }})
	}

	// Columnar table: the v column's page of every sealed set is decoded
	// straight from the buffer pool; the rows no sealed set holds are in the
	// open sets.
	{
		ns, def := absenceStore(t, true)
		fr, err := storage.OpenColumnarFragment(ns, def)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fr.Load(rows); err != nil {
			t.Fatal(err)
		}
		units := map[page.Key]bool{}
		sealedRows, sealedPasses := 0, 0
		ncols := uint32(def.Schema.Len())
		for _, file := range fr.Files {
			for base := uint32(0); base+ncols <= ns.NumPages(file); base += ncols {
				f, err := ns.Buf.Fetch(page.Key{File: file, Page: base + 1})
				if err != nil {
					t.Fatal(err)
				}
				cp, err := page.AsColumnPage(f.Buf)
				if err == nil {
					err = cp.DecodeInto(func(val types.Value) bool {
						sealedRows++
						if val.Int() > 900 {
							sealedPasses++
							units[page.Key{File: file, Page: base}] = false
						}
						return true
					})
				}
				ns.Buf.Unpin(f, false)
				if err != nil {
					t.Fatal(err)
				}
				if _, seen := units[page.Key{File: file, Page: base}]; !seen {
					units[page.Key{File: file, Page: base}] = true
				}
			}
		}
		if sealedRows == len(rows) || sealedPasses != 6 {
			t.Fatalf("test premise broken: %d of %d rows sealed, %d of the 6 passing rows", sealedRows, len(rows), sealedPasses)
		}
		formats = append(formats, format{"columnar", &fr.PredCache, units,
			func(cfg ScanConfig) Operator { return NewVecColumnarScan(fr, "", cfg) }})
	}

	for _, f := range formats {
		empty, kept := 0, 0
		for _, none := range f.units {
			if none {
				empty++
			} else {
				kept++
			}
		}
		if empty == 0 || kept == 0 {
			t.Fatalf("%s: test premise broken: %d units without a passing row, %d with one", f.name, empty, kept)
		}
		for _, tc := range []struct {
			name string
			pred expr.Expr
		}{{"complete", complete}, {"incomplete", incomplete}} {
			for _, degree := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/degree-%d", f.name, tc.name, degree), func(t *testing.T) {
					cache := f.cache
					*cache = skipcache.NewCache(64)
					ctx := NewCtx("", 0)
					ctx.SetParallelBudget(degree)
					if _, err := Collect(f.scan(ScanConfig{Pred: tc.pred, UseSkipCache: true, Parallel: degree, Ctx: ctx})); err != nil {
						t.Fatal(err)
					}
					conj, isComplete := expr.ToSkipConj(tc.pred, absenceSchema)
					if len(conj) != 1 || isComplete != (tc.name == "complete") {
						t.Fatalf("skip conjunction %v, complete=%v", conj, isComplete)
					}
					want := 0
					for k, none := range f.units {
						record := none && isComplete
						if record {
							want++
						}
						if got := (*cache).CanSkip(k, conj); got != record {
							t.Errorf("unit %v: recorded=%v, want %v (no row passes: %v)", k, got, record, none)
						}
					}
					if n := (*cache).Entries(); n != want {
						t.Errorf("cache holds %d entries, want the %d units above: a last page or an open set was recorded", n, want)
					}
				})
			}
		}
	}
}
