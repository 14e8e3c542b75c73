// Cost model for join enumeration and distribution choice.
package opt

import (
	"slices"

	"repro/internal/catalog"
	"repro/internal/plan"
	"repro/internal/types"
)

// The machine constants of the cost model, which perfmodel's "hrdbms"
// profile reads too.
const (
	// CostRowsPerSec is per-core row processing throughput.
	CostRowsPerSec = 4.0e6
	// CostLinkBW is per-link network bandwidth, bytes/sec.
	CostLinkBW = 1000e6
	// CostDiskBW is sequential disk bandwidth, bytes/sec.
	CostDiskBW = 400e6
)

// MaxBroadcastBytes caps the estimated build-side size eligible for
// broadcast: every worker holds a full copy, so an estimation error on a
// huge build side must not blow worker memory.
const MaxBroadcastBytes = 8 << 20

// DefaultWorkers is the modeled cluster width when the caller does not say.
const DefaultWorkers = 4

// magicKeyShare gates the magic-set rewrite (magicset.go): the outer block's
// key source may be estimated at no more than this share of the distinct
// keys the aggregate groups. Half lets q20's rewrite fire under cardinality
// feedback, where its source holds 536 of 2,000 parts, and keeps it off
// where the source is as large as the key domain (q15's suppliers, q18's
// orders), where the semi join would cost a probe per row and save nothing.
const magicKeyShare = 0.5

// Options parameterizes optimization for a concrete cluster.
type Options struct {
	// Workers is the number of worker nodes network costs are modeled on.
	Workers int
	// Feedback, when set, lets the estimator prefer observed cardinalities
	// from earlier queries over the statistics model.
	Feedback *Feedback
}

func (o Options) workers() int {
	if o.Workers > 1 {
		return o.Workers
	}
	return DefaultWorkers
}

// RowWidth estimates the average encoded row width in bytes of a node's
// output, using per-column AvgWidth stats where available.
func (e *Estimator) RowWidth(n plan.Node) float64 {
	var w float64
	for _, col := range n.Schema().Cols {
		w += e.colWidth(n, col.Name, col.Kind)
	}
	if w < 8 {
		w = 8
	}
	return w
}

func (e *Estimator) colWidth(n plan.Node, name string, kind types.Kind) float64 {
	if cs, _ := e.colStatsFor(n, name); cs != nil && cs.AvgWidth > 0 {
		return cs.AvgWidth
	}
	if kind == types.KindString {
		return 16
	}
	return 8
}

// DistKind classifies where a distributed stream's rows live, in the cost
// model and in the cluster's streams alike.
type DistKind uint8

// Stream distributions.
const (
	DistRandom DistKind = iota
	DistPartitioned
	DistReplicated
)

// DistInfo describes how a (sub)plan's output is spread over workers:
// partitioned by the named columns, fully replicated, or neither.
type DistInfo struct {
	Kind DistKind
	Cols []string
}

// PartitionedOn reports whether a stream spread as d is partitioned on
// exactly keys, in order — the paper's shuffle elimination: equality on the
// existing partition columns implies co-location. Both are schema names, so
// the comparison is exact. The cost model and the cluster's placement both
// decide by it.
func (d DistInfo) PartitionedOn(keys []string) bool {
	return d.Kind == DistPartitioned && slices.Equal(d.Cols, keys)
}

// JoinNet is the network plan for one join: what each side does and the
// modeled bytes moved.
type JoinNet struct {
	Broadcast bool // replicate the build (right) side to every worker
	// ShuffleLeft / ShuffleRight are set when that side must be hash-
	// repartitioned on the join keys (mutually exclusive with Broadcast
	// for the right side).
	ShuffleLeft, ShuffleRight bool
	Bytes                     float64 // total bytes crossing the network
}

// ChooseJoinNet picks the cheapest legal data movement for an equi-join
// given each side's distribution and estimated size. The left side is the
// probe side and keeps its distribution under a broadcast; broadcasting the
// build side costs bytes*(W-1) but can beat shuffling a much larger probe
// side, which is the paper's shuffle-vs-broadcast decision made from
// estimated build-side size.
func ChooseJoinNet(left, right DistInfo, leftKeys, rightKeys []string,
	leftRows, leftWidth, rightRows, rightWidth float64, workers int) JoinNet {
	w := float64(workers)
	if w < 2 {
		// Single worker: everything is local.
		return JoinNet{}
	}
	leftOK := left.PartitionedOn(leftKeys)
	rightOK := right.PartitionedOn(rightKeys)
	if left.Kind == DistReplicated || right.Kind == DistReplicated {
		return JoinNet{}
	}
	if leftOK && rightOK {
		return JoinNet{}
	}
	// Option 1: hash-shuffle every misplaced side. A shuffle moves the
	// (W-1)/W fraction of the side's bytes that hashes to another worker.
	shuffle := JoinNet{ShuffleLeft: !leftOK, ShuffleRight: !rightOK}
	if !leftOK {
		shuffle.Bytes += leftRows * leftWidth * (w - 1) / w
	}
	if !rightOK {
		shuffle.Bytes += rightRows * rightWidth * (w - 1) / w
	}
	// Option 2: broadcast the build side; the probe side stays put. Only
	// legal when there are join keys to begin with (the caller guarantees
	// an equi-join), and only useful when the left side would otherwise
	// move. Memory cap: every worker materializes the full build side.
	bcastBytes := rightRows * rightWidth * (w - 1)
	if !leftOK && len(leftKeys) > 0 &&
		rightRows*rightWidth <= MaxBroadcastBytes &&
		bcastBytes < shuffle.Bytes {
		return JoinNet{Broadcast: true, Bytes: bcastBytes}
	}
	return shuffle
}

// joinOutDist is the distribution of the join's output stream under a
// chosen movement plan, mirroring cluster/distribute.go's bookkeeping.
func joinOutDist(net JoinNet, left DistInfo, leftKeys []string) DistInfo {
	if net.Broadcast {
		return left // probe side untouched
	}
	if net.ShuffleLeft {
		return DistInfo{Kind: DistPartitioned, Cols: append([]string(nil), leftKeys...)}
	}
	if left.Kind == DistPartitioned {
		return left
	}
	return DistInfo{Kind: DistRandom}
}

// LeafDist is how the rows of a join leaf are spread over the workers, for
// the join orderer and for the distribution layer's scans alike. A scan's
// are spread as its table is partitioned (or replicated), so long as it
// emits the partitioning columns: a stream cannot be known by a column it
// does not carry — a later name lookup would miss it — so a scan that
// prunes one away is spread at random. A filter keeps its child's spread;
// anything else is spread at random.
func LeafDist(n plan.Node) DistInfo {
	switch x := n.(type) {
	case *plan.Filter:
		return LeafDist(x.Child)
	case *plan.Scan:
		switch def := x.Table; {
		case def.Part.Kind == catalog.PartReplicated:
			return DistInfo{Kind: DistReplicated}
		case def.Part.Kind == catalog.PartHash && len(def.Part.Cols) > 0:
			sch := x.Schema()
			cols := make([]string, len(def.Part.Cols))
			for i, c := range def.Part.Cols {
				cols[i] = x.Alias + "." + c
				if sch.Find(cols[i]) < 0 {
					return DistInfo{Kind: DistRandom}
				}
			}
			return DistInfo{Kind: DistPartitioned, Cols: cols}
		}
	}
	return DistInfo{Kind: DistRandom}
}

// joinCost models one left-deep join step in seconds: hash build over the
// right side, probe over the left, output materialization — spread across
// the workers — plus the network term for the chosen movement.
func joinCost(leftRows, rightRows, outRows float64, net JoinNet, workers int) float64 {
	w := float64(workers)
	if w < 1 {
		w = 1
	}
	cpu := (leftRows + rightRows + outRows) / CostRowsPerSec / w
	nw := net.Bytes / CostLinkBW / w
	return cpu + nw
}
