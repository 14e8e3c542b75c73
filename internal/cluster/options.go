package cluster

import (
	"time"

	"repro/internal/exec"
)

// QueryOptions carries the serving layer's per-query controls into
// execution. The zero value (or a nil pointer) means "no controls": no kill
// switch, cluster-default batch sizing, the configured profile's
// parallelism, and no admission annotation.
type QueryOptions struct {
	// Cancel, when set, is the query's kill switch: firing it aborts scan
	// feeds and exchanges at the next batch boundary and surfaces the
	// cause from the coordinator's pull loop.
	Cancel *exec.Cancel
	// BatchRows overrides the slab/wire batch size for this query (a
	// per-session setting). 0 keeps the cluster default.
	BatchRows int
	// MaxParallel clamps every per-operator parallelism degree of the
	// execution profile (a per-session parallelism cap against the shared
	// worker budget). 0 keeps the profile's degrees.
	MaxParallel int
	// QueueWait is how long admission queued the query before it ran;
	// traced queries annotate it as an Admission span.
	QueueWait time.Duration
}
