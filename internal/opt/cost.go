// Cost model for join enumeration and distribution choice.
package opt

import (
	"slices"

	"repro/internal/catalog"
	"repro/internal/exec"
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
// keys the aggregate groups. Half lets q20's rewrite fire even where its
// source is estimated at 536 of 2,000 parts, and keeps it off where the
// source is as large as the key domain (q15's suppliers, q18's orders),
// where the semi join would cost a probe per row and save nothing.
const magicKeyShare = 0.5

// Options parameterizes optimization for a concrete cluster.
type Options struct {
	// Workers is the number of worker nodes network costs are modeled on.
	Workers int
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
	// Broadcast replicates the right input to every worker, BroadcastLeft
	// the left one; the other input stays where it is.
	Broadcast, BroadcastLeft bool
	// ShuffleLeft / ShuffleRight are set when that side must be hash-
	// repartitioned on the join keys (never together with a broadcast).
	ShuffleLeft, ShuffleRight bool
	Bytes                     float64 // total bytes crossing the network
}

// JoinSide is one input of a join as the network cost model sees it: how
// its rows are spread, the names of its key columns (nil when a key is
// computed), and its estimated rows and row width.
type JoinSide struct {
	Dist        DistInfo
	Keys        []string
	Rows, Width float64
}

func (s JoinSide) bytes() float64 { return s.Rows * s.Width }

// ChooseJoinNet picks the cheapest legal data movement for an equi-join of
// type typ given each side's distribution and estimated size: shuffle every
// side not placed on its keys, or replicate one side to every worker so the
// other stays put. Broadcasting a side costs its bytes*(W-1) but can beat
// shuffling a much larger other side, which is the paper's
// shuffle-vs-broadcast decision made from the estimated size of the input
// that would move. Either side may move: the right when the left is
// misplaced, the left when it is placed and the right is not — an inner
// join's left only, since a semi or anti join emits its left rows, which
// must live on one worker each. Memory cap: every worker holds the whole
// broadcast side.
func ChooseJoinNet(typ exec.JoinType, left, right JoinSide, workers int) JoinNet {
	w := float64(workers)
	if w < 2 {
		// Single worker: everything is local.
		return JoinNet{}
	}
	if left.Dist.Kind == DistReplicated || right.Dist.Kind == DistReplicated {
		return JoinNet{}
	}
	leftOK := left.Dist.PartitionedOn(left.Keys)
	rightOK := right.Dist.PartitionedOn(right.Keys)
	if leftOK && rightOK {
		return JoinNet{}
	}
	// A shuffle moves the (W-1)/W fraction of a side's bytes that hashes to
	// another worker.
	best := JoinNet{ShuffleLeft: !leftOK, ShuffleRight: !rightOK}
	if !leftOK {
		best.Bytes += left.bytes() * (w - 1) / w
	}
	if !rightOK {
		best.Bytes += right.bytes() * (w - 1) / w
	}
	if !leftOK && len(left.Keys) > 0 && right.bytes() <= MaxBroadcastBytes && right.bytes()*(w-1) < best.Bytes {
		best = JoinNet{Broadcast: true, Bytes: right.bytes() * (w - 1)}
	}
	if typ == exec.JoinInner && leftOK && len(right.Keys) > 0 && left.bytes() <= MaxBroadcastBytes && left.bytes()*(w-1) < best.Bytes {
		best = JoinNet{BroadcastLeft: true, Bytes: left.bytes() * (w - 1)}
	}
	return best
}

// joinOutDist is the distribution of the join's output stream under a
// chosen movement plan, mirroring cluster/distribute.go's bookkeeping.
func joinOutDist(net JoinNet, left, right DistInfo, leftKeys []string) DistInfo {
	switch {
	case net.Broadcast:
		return left // probe side untouched
	case net.BroadcastLeft:
		return right
	case net.ShuffleLeft:
		return DistInfo{Kind: DistPartitioned, Cols: append([]string(nil), leftKeys...)}
	case left.Kind == DistPartitioned:
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
