package vec

import (
	"math"
	"testing"

	"repro/internal/types"
)

var poolSchema = types.NewSchema(
	types.Column{Name: "i", Kind: types.KindInt},
	types.Column{Name: "f", Kind: types.KindFloat},
	types.Column{Name: "s", Kind: types.KindString},
	types.Column{Name: "b", Kind: types.KindString},
)

// TestReleaseLeavesOtherBatchesAlone: Release pools only what Get made; a
// batch built by New or by hand keeps its contents.
func TestReleaseLeavesOtherBatchesAlone(t *testing.T) {
	b := FromRows(poolSchema, []types.Row{{types.NewInt(1), types.NewFloat(2), types.NewString("x"), types.NewString("y")}})
	b.Release()
	if b.N != 1 || len(b.Cols) != 4 || b.Cols[2].Value(0).S != "x" {
		t.Fatalf("Release changed a batch New made: %+v", b)
	}
}

// TestReleaseScrubsWhatItPools: Get lays a batch out like New (boxed marks
// a string column boxed); Release resets its dictionaries — a new ID,
// nothing held — and leaves no NULL bit or boxed value in the slabs it
// pools, over their whole capacity: cleared in a normal build, garbage in
// an invariants build.
func TestReleaseScrubsWhatItPools(t *testing.T) {
	b := Get(poolSchema, []bool{false, false, false, true})
	for i, want := range []Form{FormInt, FormFloat, FormStr, FormBoxed} {
		if b.Cols[i].Form != want {
			t.Fatalf("column %d has layout %v, want %v", i, b.Cols[i].Form, want)
		}
	}
	if b.Cols[3].Dict != nil {
		t.Fatal("a boxed column has a dictionary")
	}
	for k := 0; k < 100; k++ {
		if k%3 == 0 {
			b.AppendRow(types.Row{types.Null, types.Null, types.Null, types.Null})
			continue
		}
		b.AppendRow(types.Row{types.NewInt(int64(k)), types.NewFloat(float64(k)), types.NewString("s"), types.NewString("boxed")})
	}
	dict, id := b.Cols[2].Dict, b.Cols[2].Dict.ID()
	nulls := b.Cols[0].Nulls[:cap(b.Cols[0].Nulls)]
	vals := b.Cols[3].Vals[:cap(b.Cols[3].Vals)]
	ints := b.Cols[0].I[:cap(b.Cols[0].I)]
	b.Release()

	if dict.ID() == id || dict.Len() != 0 {
		t.Fatalf("a released dictionary keeps ID %d (was %d) and %d entries", dict.ID(), id, dict.Len())
	}
	if len(b.Cols) != 0 || b.N != 0 {
		t.Fatalf("a released batch still shows %d columns, %d rows", len(b.Cols), b.N)
	}
	wantWord := uint64(0)
	if poisonRecycled {
		wantWord = math.MaxUint64
	}
	for i, w := range nulls {
		if w != wantWord {
			t.Fatalf("null word %d of a released slab is %#x, want %#x", i, w, wantWord)
		}
	}
	for i, v := range vals {
		if poisonRecycled && v.S == "boxed" || !poisonRecycled && (v != types.Value{}) {
			t.Fatalf("boxed value %d of a released slab is %v", i, v)
		}
	}
	if poisonRecycled {
		for i, x := range ints {
			if x != 0x5a5a5a5a5a5a5a5a {
				t.Fatalf("int %d of a released slab is %d, not garbage", i, x)
			}
		}
	}
	b.Release() // a second release is a no-op
}

// TestPoolsDropWhatIsFarTooLarge: a slab above maxPooledLen, or a
// dictionary of more entries, is not kept.
func TestPoolsDropWhatIsFarTooLarge(t *testing.T) {
	var p slabPool[int64]
	p.put(make([]int64, 0, maxPooledLen+1))
	if s := p.get(); s != nil {
		t.Fatalf("a slab of capacity %d came back from the pool", cap(s))
	}
	d := NewDict()
	for i := 0; i <= maxPooledLen; i++ {
		d.Code(string(rune('a'+i%26)) + string(rune(i)))
	}
	id := d.ID()
	PutDict(d)
	if d.ID() != id {
		t.Fatal("a dictionary too large to pool was reset")
	}
}
