package exec

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/testutil"
	"repro/internal/types"
)

// goid returns the running goroutine's id (parsed off its stack header) —
// the only way a test can tell which goroutine a callback ran on.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// slabFeed is fanOut's test input: it yields slabs of rowsPer consecutive
// integers out of ONE reused buffer, as a real producer does, until `slabs`
// have been pulled (forever when slabs < 0), and fails the pull numbered
// failAt with failErr.
type slabFeed struct {
	slabs, rowsPer int
	failAt         int64
	failErr        error
	buf            []types.Row
	pulls          atomic.Int64
}

func (f *slabFeed) Schema() types.Schema { return intSchema("n") }
func (f *slabFeed) Open() error          { return nil }
func (f *slabFeed) Close() error         { return nil }

func (f *slabFeed) NextBatch() ([]types.Row, bool, error) {
	i := f.pulls.Add(1) - 1
	if f.failErr != nil && i == f.failAt {
		return nil, false, f.failErr
	}
	if f.slabs >= 0 && i >= int64(f.slabs) {
		return nil, false, nil
	}
	if f.buf == nil {
		f.buf = make([]types.Row, f.rowsPer)
	}
	for j := range f.buf {
		f.buf[j] = types.Row{types.NewInt(i*int64(f.rowsPer) + int64(j))}
	}
	return f.buf, true, nil
}

// fanOutProbe records what one fanOut run did, per worker.
type fanOutProbe struct {
	mu      sync.Mutex
	seen    map[int64]int    // row value → times delivered
	goids   []map[string]int // per worker: goroutine → calls
	busy    []atomic.Int32   // per worker: inside work/done right now
	dones   []atomic.Int32   // per worker: done calls
	late    atomic.Int32     // work calls that followed their worker's done
	overlap atomic.Int32     // calls that found their worker already busy
	slabs   atomic.Int64     // work calls, all workers
}

func newFanOutProbe(degree int) *fanOutProbe {
	p := &fanOutProbe{seen: map[int64]int{}, goids: make([]map[string]int, degree),
		busy: make([]atomic.Int32, degree), dones: make([]atomic.Int32, degree)}
	for w := range p.goids {
		p.goids[w] = map[string]int{}
	}
	return p
}

func (p *fanOutProbe) enter(w int) func() {
	if !p.busy[w].CompareAndSwap(0, 1) {
		p.overlap.Add(1)
	}
	p.mu.Lock()
	p.goids[w][goid()]++
	p.mu.Unlock()
	return func() { p.busy[w].Store(0) }
}

func (p *fanOutProbe) work(w int, slab []types.Row) error {
	defer p.enter(w)()
	if p.dones[w].Load() > 0 {
		p.late.Add(1)
	}
	p.slabs.Add(1)
	p.mu.Lock()
	for _, r := range slab {
		p.seen[r[0].Int()]++
	}
	p.mu.Unlock()
	return nil
}

func (p *fanOutProbe) done(w int) error {
	defer p.enter(w)()
	p.dones[w].Add(1)
	return nil
}

// totalDones sums the done calls over all workers.
func (p *fanOutProbe) totalDones() int {
	n := 0
	for w := range p.dones {
		n += int(p.dones[w].Load())
	}
	return n
}

// returns runs fn and fails the test if it has not returned within 20s — a
// hung fanOut must fail its own subtest, not time the package out.
func returns(t *testing.T, fn func() error) error {
	t.Helper()
	ch := make(chan error, 1)
	go func() { ch <- fn() }()
	select {
	case err := <-ch:
		return err
	case <-time.After(20 * time.Second):
		t.Fatal("fanOut did not return")
		return nil
	}
}

// TestFanOut pins the driver's contract at the inline degree and at a
// parallel one (run under -race by scripts/check.sh).
func TestFanOut(t *testing.T) {
	testutil.AssertNoGoroutineLeak(t)

	t.Run("degree 1 is inline and uncopied", func(t *testing.T) {
		ctx := NewCtx("", 0)
		feed := &slabFeed{slabs: 10, rowsPer: 7}
		p := newFanOutProbe(1)
		caller := goid()
		copied := 0
		err := fanOut(ctx, rowSlabs(feed), 1, func(w int, slab []types.Row) error {
			if &slab[0] != &feed.buf[0] {
				copied++
			}
			return p.work(w, slab)
		}, p.done)
		if err != nil {
			t.Fatal(err)
		}
		if copied != 0 {
			t.Errorf("%d of 10 slabs were copied; degree 1 must pass the producer's own slab", copied)
		}
		if len(p.goids[0]) != 1 || p.goids[0][caller] != 11 {
			t.Errorf("work/done ran on goroutines %v, want 11 calls on the caller's (%s)", p.goids[0], caller)
		}
		if p.dones[0].Load() != 1 || p.late.Load() != 0 {
			t.Errorf("done ran %d times, %d slabs after it; want once, after the last slab", p.dones[0].Load(), p.late.Load())
		}
		if got := ctx.RowsProcessed.Load(); got != 70 {
			t.Errorf("RowsProcessed = %d, want 70", got)
		}
		// A nil done is allowed.
		if err := fanOut(nil, rowSlabs(&slabFeed{slabs: 2, rowsPer: 1}), 1, p.work, nil); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("degree 4 delivers every row once", func(t *testing.T) {
		const slabs, rowsPer, degree = 1000, 5, 4
		ctx := NewCtx("", 0)
		feed := &slabFeed{slabs: slabs, rowsPer: rowsPer}
		p := newFanOutProbe(degree)
		var aliased atomic.Int32
		err := returns(t, func() error {
			return fanOut(ctx, rowSlabs(feed), degree, func(w int, slab []types.Row) error {
				if &slab[0] == &feed.buf[0] {
					aliased.Add(1)
				}
				return p.work(w, slab)
			}, p.done)
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(p.seen) != slabs*rowsPer {
			t.Fatalf("saw %d distinct rows, want %d", len(p.seen), slabs*rowsPer)
		}
		for v, n := range p.seen {
			if n != 1 {
				t.Fatalf("row %d delivered %d times", v, n)
			}
		}
		if aliased.Load() != 0 {
			t.Errorf("%d slabs crossed the goroutine boundary without a copy", aliased.Load())
		}
		if p.overlap.Load() != 0 {
			t.Errorf("%d calls ran concurrently with another call for the same worker", p.overlap.Load())
		}
		for w := 0; w < degree; w++ {
			if len(p.goids[w]) != 1 {
				t.Errorf("worker %d's calls ran on %d goroutines, want 1", w, len(p.goids[w]))
			}
			if p.dones[w].Load() != 1 {
				t.Errorf("done(%d) ran %d times, want once", w, p.dones[w].Load())
			}
		}
		if p.late.Load() != 0 {
			t.Errorf("%d slabs reached a worker after its done", p.late.Load())
		}
		if got := ctx.RowsProcessed.Load(); got != slabs*rowsPer {
			t.Errorf("RowsProcessed = %d, want %d", got, slabs*rowsPer)
		}
	})

	for _, degree := range []int{1, 4} {
		// The input never ends, so only the failure can end the run: the
		// feeder must not stay parked on a full channel, and done — which
		// only exhaustion triggers — must not run.
		t.Run(fmt.Sprintf("worker error, degree %d", degree), func(t *testing.T) {
			boom := errors.New("worker failed")
			p := newFanOutProbe(degree)
			err := returns(t, func() error {
				return fanOut(NewCtx("", 0), rowSlabs(&slabFeed{slabs: -1, rowsPer: 3}), degree, func(w int, slab []types.Row) error {
					if p.slabs.Load() >= 25 {
						return boom
					}
					return p.work(w, slab)
				}, p.done)
			})
			if err != boom {
				t.Fatalf("err = %v, want the worker's", err)
			}
			if n := p.totalDones(); n != 0 {
				t.Errorf("done ran %d times after a worker error", n)
			}
		})

		t.Run(fmt.Sprintf("input error, degree %d", degree), func(t *testing.T) {
			boom := errors.New("input failed")
			feed := &slabFeed{slabs: -1, rowsPer: 3, failAt: 40, failErr: boom}
			p := newFanOutProbe(degree)
			err := returns(t, func() error { return fanOut(NewCtx("", 0), rowSlabs(feed), degree, p.work, p.done) })
			if err != boom {
				t.Fatalf("err = %v, want the input's", err)
			}
			if pulls := feed.pulls.Load(); pulls != 41 {
				t.Errorf("input pulled %d times, want 41 (none after its error)", pulls)
			}
			if n := p.totalDones(); n != 0 {
				t.Errorf("done ran %d times after an input error", n)
			}
		})

		t.Run(fmt.Sprintf("kill, degree %d", degree), func(t *testing.T) {
			cause := errors.New("killed by test")
			cancel := NewCancel()
			feed := &slabFeed{slabs: -1, rowsPer: 3}
			p := newFanOutProbe(degree)
			var killed atomic.Bool
			var atKill atomic.Int64
			err := returns(t, func() error {
				return fanOut(NewCtx("", 0).Child(cancel), rowSlabs(feed), degree, func(w int, slab []types.Row) error {
					if p.slabs.Load() >= 30 && killed.CompareAndSwap(false, true) {
						cancel.Kill(cause)
						atKill.Store(feed.pulls.Load())
					}
					return p.work(w, slab)
				}, p.done)
			})
			if err != cause {
				t.Fatalf("err = %v, want the kill cause", err)
			}
			if after := feed.pulls.Load() - atKill.Load(); after > 1 {
				t.Errorf("input pulled %d slabs after the kill, want at most 1", after)
			}
			if n := p.totalDones(); n != 0 {
				t.Errorf("done ran %d times after a kill", n)
			}
		})
	}
}
