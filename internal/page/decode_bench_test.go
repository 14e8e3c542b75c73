package page

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/types"
	"repro/internal/vec"
)

// BenchmarkTypedVsBoxedDecode compares the typed batch decoders against
// the boxed DecodeInto path (each cell boxed into a types.Value and
// re-packed by Col.Append) on realistic column pages — the exact pair of
// paths VecColumnarScan chooses between per page — per layout: the unsealed
// tagged stream, and the sealed fixed and dict layouts, each read in full
// and through a 10 %-selective selection.
func BenchmarkTypedVsBoxedDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	const pageSize = 32 * 1024

	fill := func(seal bool, wantLayout int, gen func(i int) types.Value) (ColumnPage, int) {
		p := InitColumnPage(make([]byte, pageSize))
		n := 0
		for p.Append(gen(n)) {
			n++
		}
		if seal {
			p.Seal()
		}
		if got := int(p.Buf[colOffFlags] >> 1); got != wantLayout {
			b.Fatalf("page sealed into layout %d, want %d", got, wantLayout)
		}
		return p, n
	}
	genInt := func(int) types.Value { return types.NewInt(5_000_000 + rng.Int63n(50_000)) } // a key range: width 2
	genFloat := func(int) types.Value { return types.NewFloat(rng.Float64() * 1e5) }
	genStr := func(i int) types.Value { return types.NewString(fmt.Sprintf("STATUS-%02d", i%25)) }

	type page struct {
		name string
		form vec.Form
		p    ColumnPage
		n    int
	}
	mk := func(name string, form vec.Form, seal bool, layout int, gen func(int) types.Value) page {
		p, n := fill(seal, layout, gen)
		return page{name, form, p, n}
	}
	pages := []page{
		mk("int64", vec.FormInt, false, layoutTagged, genInt),
		mk("int64-fixed", vec.FormInt, true, layoutFixed, genInt),
		mk("float64", vec.FormFloat, false, layoutTagged, genFloat),
		mk("float64-fixed", vec.FormFloat, true, layoutFixed, genFloat),
		mk("string", vec.FormStr, false, layoutTagged, genStr),
		mk("string-dict", vec.FormStr, true, layoutDict, genStr),
		mk("float64-dict", vec.FormFloat, true, layoutDict, func(i int) types.Value { return types.NewFloat(float64(i%11) / 100) }),
	}

	rows := func(b *testing.B, n int) {
		b.ReportMetric(float64(n)*float64(b.N)/b.Elapsed().Seconds(), "rows/s")
	}
	for _, pg := range pages {
		every10th := make([]int32, 0, pg.n/10+1)
		for i := 0; i < pg.n; i += 10 {
			every10th = append(every10th, int32(i))
		}
		for _, sel := range [][]int32{nil, every10th} {
			name := pg.name + "/typed"
			if sel != nil {
				name = pg.name + "/sel10"
			}
			b.Run(name, func(b *testing.B) {
				i64 := make([]int64, 0, pg.n)
				f64 := make([]float64, 0, pg.n)
				codes := make([]int32, 0, pg.n)
				dict := vec.NewDict()
				var bm vec.Bitmap
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					var err error
					switch pg.form {
					case vec.FormInt:
						_, err = pg.p.DecodeInt64sSel(types.KindInt, i64, &bm, sel)
					case vec.FormFloat:
						_, err = pg.p.DecodeFloat64sSel(f64, &bm, sel)
					default:
						_, err = pg.p.DecodeStringsSel(dict, codes, &bm, sel)
					}
					if err != nil {
						b.Fatal(err)
					}
				}
				rows(b, pg.n)
			})
		}
		b.Run(pg.name+"/boxed", func(b *testing.B) {
			col := vec.Col{Kind: types.KindInt, Form: pg.form, Dict: vec.NewDict()}
			switch pg.form {
			case vec.FormFloat:
				col.Kind = types.KindFloat
			case vec.FormStr:
				col.Kind = types.KindString
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				col.I, col.F, col.Codes = col.I[:0], col.F[:0], col.Codes[:0]
				if err := pg.p.DecodeInto(func(v types.Value) bool {
					col.Append(v)
					return true
				}); err != nil {
					b.Fatal(err)
				}
			}
			rows(b, pg.n)
		})
	}
}
