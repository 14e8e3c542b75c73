package exec

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/testutil"
	"repro/internal/types"
)

// trippingSource yields rows in slabs of 64 and, once `after` rows are out,
// trips: it returns failErr, or (failErr nil) fires kill and keeps going —
// the operator above has to notice the kill switch by itself.
type trippingSource struct {
	Source
	after   int
	failErr error
	kill    func()
}

func (s *trippingSource) NextBatch() ([]types.Row, bool, error) {
	if s.after > 0 && s.pos >= s.after {
		if s.failErr != nil {
			return nil, false, s.failErr
		}
		s.kill()
	}
	return s.Source.NextBatch()
}

// spillLeftovers lists what an operator left behind in its spill directory:
// files still there, and descriptors this process still holds on files in it
// (unlinked or not; /proc/self/fd, so Linux only — elsewhere only files).
func spillLeftovers(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		out = append(out, "file "+e.Name())
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		return out
	}
	for _, fd := range fds {
		if target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name())); err == nil && strings.HasPrefix(target, dir+"/") {
			out = append(out, "open fd "+target)
		}
	}
	return out
}

// TestSpillFilesRemovedOnError: a blocking operator that has spilled and
// then fails, is killed, or is closed by a consumer that stops reading must
// leave its spill directory empty and hold no descriptor into it once Close
// returns — at the inline degree and at a parallel one.
func TestSpillFilesRemovedOnError(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	const memRows, n = 100, 4000
	sch := intSchema("k", "v")
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i * 7919 % n)), types.NewInt(int64(i))}
	}
	small := func() Operator { return NewSource(sch, rows[:300]) }
	keys := []SortKey{{Col: 0}}
	ops := []struct {
		name  string
		build func(ctx *Ctx, in Operator, degree int) Operator
	}{
		{"aggregate", func(ctx *Ctx, in Operator, degree int) Operator {
			agg := NewHashAggregate(ctx, in, ColRefs(0), []AggSpec{{Kind: AggCount, Name: "c"}}, AggComplete)
			agg.Parallel = degree
			return agg
		}},
		{"aggregate, typed input", func(ctx *Ctx, in Operator, degree int) Operator {
			agg := NewTypedHashAggregate(ctx, &typedSource{Operator: in}, ColRefs(0), []AggSpec{{Kind: AggCount, Name: "c"}}, AggComplete)
			agg.Parallel = degree
			return agg
		}},
		{"sort", func(ctx *Ctx, in Operator, degree int) Operator {
			s := NewSort(ctx, in, keys)
			s.Parallel = degree
			return s
		}},
		{"grace join, build side", func(ctx *Ctx, in Operator, degree int) Operator {
			return NewHashJoin(ctx, small(), in, ColRefs(0), ColRefs(0), JoinInner, nil, degree)
		}},
		{"grace join, probe side", func(ctx *Ctx, in Operator, degree int) Operator {
			return NewHashJoin(ctx, in, small(), ColRefs(0), ColRefs(0), JoinInner, nil, degree)
		}},
		{"grace join, typed probe", func(ctx *Ctx, in Operator, degree int) Operator {
			return NewTypedProbeHashJoin(ctx, &typedSource{Operator: in}, small(), ColRefs(0), ColRefs(0), JoinInner, nil, degree)
		}},
		{"materialize to disk", func(ctx *Ctx, in Operator, degree int) Operator {
			return NewMaterialize(ctx, in)
		}},
	}
	boom := errors.New("input failed")
	cause := errors.New("killed by test")
	for _, op := range ops {
		for _, degree := range []int{1, 4} {
			for _, how := range []string{"input fails", "kill", "close early"} {
				t.Run(fmt.Sprintf("%s/degree %d/%s", op.name, degree, how), func(t *testing.T) {
					dir := t.TempDir()
					cancel := NewCancel()
					ctx := NewCtx(dir, memRows).Child(cancel)
					ctx.SetParallelBudget(degree)
					in := &trippingSource{Source: Source{Sch: sch, Rows: rows, batch: 64}}
					var want error
					switch how {
					case "input fails":
						in.after, in.failErr, want = n/2, boom, boom
					case "kill":
						in.after, in.kill, want = n/2, func() { cancel.Kill(cause) }, cause
					}
					o := op.build(ctx, in, degree)
					if err := o.Open(); err != nil {
						t.Fatal(err)
					}
					// One pull runs the whole blocking build; "close early"
					// then walks away from the result it got.
					_, _, err := o.NextBatch()
					if !errors.Is(err, want) {
						t.Fatalf("NextBatch error = %v, want %v", err, want)
					}
					if ctx.SpillFiles.Load() == 0 {
						t.Fatal("nothing was spilled: the case tests nothing")
					}
					if err := o.Close(); err != nil {
						t.Fatal(err)
					}
					if left := spillLeftovers(t, dir); len(left) > 0 {
						t.Errorf("%d leftovers after Close, e.g. %s", len(left), left[0])
					}
				})
			}
		}
	}
}

// TestSpillParityAcrossDegrees: under a 100-row budget, aggregation
// (complete, and partial merged by a final) and sort return what they return
// unbounded, at the inline degree and at a parallel one.
func TestSpillParityAcrossDegrees(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)
	rows, sch := parLineitemData()
	rows = rows[:6000]
	specs := lineitemAggSpecs()
	keys := []SortKey{{Col: 0}, {Col: 3, Desc: true}}
	pipelines := []struct {
		name    string
		ordered bool
		build   func(ctx *Ctx, degree int) Operator
	}{
		{"aggregate complete", false, func(ctx *Ctx, degree int) Operator {
			agg := NewHashAggregate(ctx, NewSource(sch, rows), ColRefs(0), specs, AggComplete)
			agg.Parallel = degree
			return agg
		}},
		{"aggregate partial-final", false, func(ctx *Ctx, degree int) Operator {
			partial := NewHashAggregate(ctx, NewSource(sch, rows), ColRefs(0), specs, AggPartial)
			partial.Parallel = degree
			final := NewHashAggregate(ctx, partial, ColRefs(0), specs, AggFinal)
			final.Parallel = degree
			return final
		}},
		{"sort", true, func(ctx *Ctx, degree int) Operator {
			s := NewSort(ctx, NewSource(sch, rows), keys)
			s.Parallel = degree
			return s
		}},
	}
	for _, pl := range pipelines {
		t.Run(pl.name, func(t *testing.T) {
			want, err := Collect(pl.build(NewCtx(t.TempDir(), 0), 1))
			if err != nil {
				t.Fatal(err)
			}
			for _, degree := range []int{1, 4} {
				dir := t.TempDir()
				ctx := NewCtx(dir, 100)
				ctx.SetParallelBudget(2 * degree)
				got, err := Collect(pl.build(ctx, degree))
				if err != nil {
					t.Fatal(err)
				}
				if ctx.SpillFiles.Load() == 0 {
					t.Fatalf("degree %d: nothing was spilled", degree)
				}
				if pl.ordered {
					g, w := rowStrings(got), rowStrings(want)
					if len(g) != len(w) {
						t.Fatalf("degree %d: got %d rows, want %d", degree, len(g), len(w))
					}
					for i := range g {
						if g[i] != w[i] {
							t.Fatalf("degree %d: row %d: got %s, want %s", degree, i, g[i], w[i])
						}
					}
				} else {
					assertSameRowSet(t, got, want)
				}
				if left := spillLeftovers(t, dir); len(left) > 0 {
					t.Errorf("degree %d: %d leftovers after a clean run, e.g. %s", degree, len(left), left[0])
				}
			}
		})
	}
}
