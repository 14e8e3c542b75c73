package exec

import (
	"errors"
	"sync"

	"repro/internal/types"
)

// ErrCanceled is the cause recorded by Kill when none is supplied.
var ErrCanceled = errors.New("exec: query canceled")

// Cancel is a one-shot cancellation signal shared by every fragment of one
// query. It is deliberately smaller than context.Context: operators only
// need a select-able done channel plus a cause, and the serving layer needs
// to fire it from another goroutine (KILL, drain, client disconnect).
//
// A nil *Cancel is valid and never fires, so plans built outside the
// serving layer pay nothing.
type Cancel struct {
	done chan struct{}
	once sync.Once
	mu   sync.Mutex
	err  error
}

// NewCancel builds an unfired cancellation handle.
func NewCancel() *Cancel {
	return &Cancel{done: make(chan struct{})}
}

// Kill fires the signal with the given cause (ErrCanceled when nil).
// Subsequent calls are no-ops; the first cause wins.
func (c *Cancel) Kill(cause error) {
	if c == nil {
		return
	}
	c.once.Do(func() {
		if cause == nil {
			cause = ErrCanceled
		}
		c.mu.Lock()
		c.err = cause
		c.mu.Unlock()
		close(c.done)
	})
}

// Done returns a channel closed when the query is killed; nil (which never
// selects ready) for a nil handle.
func (c *Cancel) Done() <-chan struct{} {
	if c == nil {
		return nil
	}
	return c.done
}

// Err returns the cancellation cause, or nil while the handle is unfired.
func (c *Cancel) Err() error {
	if c == nil {
		return nil
	}
	select {
	case <-c.done:
	default:
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Guard wraps an operator so every pull re-checks a cancellation handle —
// the coordinator-side hook that makes KILL return within one batch
// boundary even when the plan is between network messages. A nil cancel
// returns the input unchanged.
func Guard(cancel *Cancel, in Operator) Operator {
	if cancel == nil {
		return in
	}
	return &guardOp{in: in, cancel: cancel}
}

type guardOp struct {
	in     Operator
	cancel *Cancel
}

func (g *guardOp) Schema() types.Schema { return g.in.Schema() }

func (g *guardOp) Open() error {
	if err := g.cancel.Err(); err != nil {
		return err
	}
	return g.in.Open()
}

// NextBatch implements Operator, checking the handle once per slab so the
// guard's overhead is one atomic-ish select per slab, not per row.
func (g *guardOp) NextBatch() ([]types.Row, bool, error) {
	if err := g.cancel.Err(); err != nil {
		return nil, false, err
	}
	return g.in.NextBatch()
}

func (g *guardOp) Close() error { return g.in.Close() }
