package exec

import (
	"testing"

	"repro/internal/types"
)

// TestForgedHashCollision files unequal keys under one forged hash, the case
// a good hash makes too rare to meet by chance: equal hashes prove nothing,
// so the join must not match across the keys and the aggregate must keep
// them as separate groups.
func TestForgedHashCollision(t *testing.T) {
	const forged uint64 = 42
	i64, f64 := types.NewInt, types.NewFloat
	sch := intSchema("k", "v")

	t.Run("join", func(t *testing.T) {
		h := NewHashJoin(NewCtx("", 0), NewSource(sch, nil), NewSource(sch, nil), ColRefs(0), ColRefs(0), JoinInner, nil, 1)
		table := &joinTable{}
		table.add(types.Row{i64(1), i64(10)}, forged)
		table.add(types.Row{i64(2), i64(20)}, forged)
		table.add(types.Row{i64(1), i64(11)}, forged)
		table.seal(false)
		for _, c := range []struct {
			key  int64
			want []int64 // the build rows' v, in arrival order
		}{{1, []int64{10, 11}}, {2, []int64{20}}, {3, nil}} {
			em := &joinEmitter{h: h, size: 16}
			p := h.newProbe(table, em)
			p.key[0] = i64(c.key)
			matched, err := p.match(types.Row{i64(c.key), i64(0)}, table.first(forged))
			if err != nil {
				t.Fatal(err)
			}
			var got []int64
			for _, r := range em.slab {
				got = append(got, r[3].I)
			}
			if matched != (len(c.want) > 0) || len(got) != len(c.want) {
				t.Fatalf("probe key %d: matched %v, joined v %v, want %v", c.key, matched, got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("probe key %d: joined v %v, want %v", c.key, got, c.want)
				}
			}
		}
	})

	t.Run("aggregate", func(t *testing.T) {
		h := NewHashAggregate(nil, NewSource(sch, nil), ColRefs(0), []AggSpec{{Kind: AggCount, Name: "c"}}, AggComplete)
		table := h.newAggTable(0, 0)
		// Unequal ints, and INT 3 beside FLOAT 3.0: one group each.
		keys := []types.Row{{i64(1)}, {i64(2)}, {i64(3)}, {f64(3)}}
		for g, k := range keys {
			if got := table.find(forged, k); got != -1 {
				t.Fatalf("key %v found as group %d before it was filed", k, got)
			}
			if got := table.insert(forged, k); got != int32(g) {
				t.Fatalf("key %v filed as group %d, want %d", k, got, g)
			}
		}
		for g, k := range keys {
			if got := table.find(forged, k); got != int32(g) {
				t.Errorf("key %v: group %d, want %d", k, got, g)
			}
		}
		if n := table.entries(); n != len(keys) {
			t.Errorf("%d groups, want %d", n, len(keys))
		}
	})
}
