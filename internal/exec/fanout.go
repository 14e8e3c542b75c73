package exec

import (
	"sync"

	"repro/internal/types"
)

// fanOut is how a blocking operator's input reaches the workers it was
// granted — the row-slab counterpart of storage.runMorsels. It drains in,
// hands every slab to work and, once the input is exhausted, calls done
// (which may be nil) for each worker; RowsProcessed is charged here, once
// per slab.
//
// At degree <= 1 everything runs on the caller's goroutine and work(0, ·)
// sees the producer's own slab, valid until it returns like any NextBatch
// result: no goroutine, no channel, no copy. Above 1 the caller becomes the
// feeder: it copies each slab (the producer reuses its buffer) and deals the
// copies over one bounded channel to degree goroutines. Every work(w, ·) and
// done(w) call for one w is made by the same goroutine, so state indexed by
// w needs no lock, and done(w) follows worker w's last slab.
//
// The first error — from the input, from a worker, or the kill cause, which
// drain checks before every pull — stops the feeder and every worker within
// one slab and is the error returned; done is not run after it.
func fanOut(ctx *Ctx, in Operator, degree int, work func(w int, slab []types.Row) error, done func(w int) error) error {
	if done == nil {
		done = func(int) error { return nil }
	}
	pull := func(deal func(slab []types.Row) error) error {
		return drain(ctx, in, func(slab []types.Row) error {
			if ctx != nil {
				ctx.RowsProcessed.Add(int64(len(slab)))
			}
			return deal(slab)
		})
	}
	if degree <= 1 {
		if err := pull(func(slab []types.Row) error { return work(0, slab) }); err != nil {
			return err
		}
		return done(0)
	}

	// One slab of slack per worker: the feeder pulls the next slab while
	// every worker is busy with its own.
	slabs := make(chan []types.Row, degree)
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
				case slab, more := <-slabs:
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
	if err := pull(func(slab []types.Row) error {
		cp := make([]types.Row, len(slab))
		copy(cp, slab)
		select {
		case slabs <- cp:
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
		close(slabs)
	}
	wg.Wait()
	return firstErr
}
