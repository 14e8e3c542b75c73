package storage

import (
	"errors"
	"sync"
	"sync/atomic"
)

// morselRun is the state the workers of one scan share.
type morselRun struct {
	parallel bool // more than one worker: only then can stop be set by a peer
	stop     atomic.Bool
}

// stopped reports whether another worker has ended the scan. A one-worker
// scan has no peer, so its per-page path never pays for the atomic.
func (r *morselRun) stopped() bool { return r.parallel && r.stop.Load() }

// add folds o into s.
func (s *ScanStats) add(o ScanStats) {
	s.PagesRead += o.PagesRead
	s.PagesSkipped += o.PagesSkipped
	s.RowsRead += o.RowsRead
	s.SetsRead += o.SetsRead
	s.SetsSkipped += o.SetsSkipped
	s.ChainPages += o.ChainPages
}

// runMorsels is the scan driver of both table formats: workers claim the
// morsel indexes [0, n) from one shared counter and run body on each; the
// ScanStats the bodies return are summed into the result. (A body counts
// into a local of its own and returns it, so the per-row counter stays on
// the worker's stack.) An error from body ends the whole scan; the first one
// that is not ErrStopScan (a consumer-initiated stop) is returned. workers
// <= 1 runs inline on the caller's goroutine.
func runMorsels(n, workers int, body func(run *morselRun, worker, i int) (ScanStats, error)) (ScanStats, error) {
	var (
		run      = morselRun{parallel: workers > 1}
		next     atomic.Int64
		mu       sync.Mutex
		total    ScanStats
		firstErr error
	)
	work := func(w int) {
		var stats ScanStats
		for !run.stop.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				break
			}
			did, err := body(&run, w, i)
			stats.add(did)
			if err != nil {
				run.stop.Store(true)
			}
			if err != nil && !errors.Is(err, ErrStopScan) {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}
		mu.Lock()
		total.add(stats)
		mu.Unlock()
	}
	if !run.parallel {
		work(0)
		return total, firstErr
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			work(w)
		}(w)
	}
	wg.Wait()
	return total, firstErr
}
