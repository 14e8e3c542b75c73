package exec

import (
	"sync"

	"repro/internal/types"
	"repro/internal/vec"
)

// slabs is a blocking operator's input as fanOut sees it, whatever the slab
// type S: next pulls one slab, rows sizes it, own — nil for a producer that
// hands every slab over and never touches it again — copies a slab the
// producer will reuse, so that it can cross to another goroutine, and
// release — nil: nothing to do — hands a slab back once work is done with
// it.
type slabs[S any] struct {
	next    func() (S, bool, error)
	rows    func(S) int
	own     func(S) S
	release func(S)
}

// rowSlabs reads an operator's row slabs. NextBatch hands out a buffer the
// producer reuses, so above degree 1 every slab is copied.
func rowSlabs(in Operator) slabs[[]types.Row] {
	return slabs[[]types.Row]{
		next: in.NextBatch,
		rows: func(slab []types.Row) int { return len(slab) },
		own:  func(slab []types.Row) []types.Row { return append([]types.Row(nil), slab...) },
	}
}

// typedBatches reads the typed batches of a VecOperator, each of which is
// its consumer's until released: a batch crosses to a build worker as it
// is, and goes back to the pools once the worker is done with it.
func typedBatches(in VecOperator) slabs[*vec.Batch] {
	return slabs[*vec.Batch]{next: in.NextVec, rows: (*vec.Batch).Rows, release: (*vec.Batch).Release}
}

// fanOut is how a blocking operator's input reaches the workers it was
// granted — the operator-input counterpart of storage.runMorsels, generic
// over the slab type the way feed[T] is. It drains in, hands every slab to
// work and, once the input is exhausted, calls done (which may be nil) for
// each worker; RowsProcessed is charged here, once per slab, and every slab
// work was handed is released (in.release) once work returns.
//
// At degree <= 1 everything runs on the caller's goroutine and work(0, ·)
// sees the producer's own slab, valid until it returns like any NextBatch
// result: no goroutine, no channel, no copy. Above 1 the caller becomes the
// feeder: it takes ownership of each slab (in.own) and deals them over one
// bounded channel to degree goroutines. Every work(w, ·) and done(w) call
// for one w is made by the same goroutine, so state indexed by w needs no
// lock, and done(w) follows worker w's last slab.
//
// The first error — from the input, from a worker, or the kill cause, which
// drain checks before every pull — stops the feeder and every worker within
// one slab and is the error returned; done is not run after it.
func fanOut[S any](ctx *Ctx, in slabs[S], degree int, work func(w int, slab S) error, done func(w int) error) error {
	if done == nil {
		done = func(int) error { return nil }
	}
	if in.release != nil {
		inner := work
		work = func(w int, slab S) error {
			defer in.release(slab)
			return inner(w, slab)
		}
	}
	pull := func(deal func(slab S) error) error {
		return drain(ctx, in.next, func(slab S) error {
			if ctx != nil {
				ctx.RowsProcessed.Add(int64(in.rows(slab)))
			}
			return deal(slab)
		})
	}
	if degree <= 1 {
		if err := pull(func(slab S) error { return work(0, slab) }); err != nil {
			return err
		}
		return done(0)
	}

	// One slab of slack per worker: the feeder pulls the next slab while
	// every worker is busy with its own.
	ch := make(chan S, degree)
	stop := make(chan struct{})
	var (
		once     sync.Once
		firstErr error
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			close(stop)
		})
	}
	for w := 0; w < degree; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				case slab, more := <-ch:
					if !more {
						if err := done(w); err != nil {
							fail(err)
						}
						return
					}
					if err := work(w, slab); err != nil {
						fail(err)
						return
					}
				}
			}
		}(w)
	}
	if err := pull(func(slab S) error {
		if in.own != nil {
			slab = in.own(slab)
		}
		select {
		case ch <- slab:
			return nil
		case <-stop:
			return errStopDrain
		}
	}); err != nil {
		fail(err)
	}
	// The channel is closed — which is what sends the workers into done —
	// only if nothing has failed; after a failure they leave through stop.
	select {
	case <-stop:
	default:
		close(ch)
	}
	wg.Wait()
	return firstErr
}
