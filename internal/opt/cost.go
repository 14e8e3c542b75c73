// Cost model for join enumeration and distribution choice. The constants
// mirror the perfmodel "hrdbms" system profile (opt cannot import perfmodel
// — perfmodel imports cluster which imports opt — so they are restated here
// and pinned by a consistency test in the perfmodel package).
package opt

import (
	"strings"

	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
	"repro/internal/types"
)

// Mirrors of perfmodel's hrdbms profile (see TestOptCostConstantsMatch in
// internal/perfmodel).
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

// DistKind mirrors the cluster layer's stream distribution classification;
// opt keeps its own copy to stay import-cycle-free.
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

// distMatchesKeys reports whether a stream partitioned on d.Cols is
// already correctly partitioned for joining on keys (same column list, by
// suffix-insensitive name match, in order).
func distMatchesKeys(d DistInfo, keys []string) bool {
	if d.Kind != DistPartitioned || len(d.Cols) != len(keys) {
		return false
	}
	for i := range keys {
		if !nameMatches(d.Cols[i], keys[i]) {
			return false
		}
	}
	return true
}

// nameMatches compares two possibly-qualified column names the way the
// cluster layer does: equal, or one is a suffix of the other past a dot.
func nameMatches(a, b string) bool {
	a, b = strings.ToLower(a), strings.ToLower(b)
	if a == b {
		return true
	}
	return strings.HasSuffix(a, "."+b) || strings.HasSuffix(b, "."+a)
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
	leftOK := distMatchesKeys(left, leftKeys)
	rightOK := distMatchesKeys(right, rightKeys)
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

// leafDist derives the worker distribution of a join leaf: base-table
// scans are partitioned (or replicated) per the catalog; filters preserve
// the child's layout; anything else is treated as unknown.
func (e *Estimator) leafDist(n plan.Node) DistInfo {
	switch x := n.(type) {
	case *plan.Filter:
		return e.leafDist(x.Child)
	case *plan.Scan:
		def := x.Table
		if def.Part.Kind == catalog.PartReplicated {
			return DistInfo{Kind: DistReplicated}
		}
		if def.Part.Kind == catalog.PartHash && len(def.Part.Cols) > 0 {
			alias := x.Alias
			if alias == "" {
				alias = def.Name
			}
			cols := make([]string, len(def.Part.Cols))
			for i, c := range def.Part.Cols {
				cols[i] = strings.ToLower(alias + "." + c)
			}
			return DistInfo{Kind: DistPartitioned, Cols: cols}
		}
		return DistInfo{Kind: DistRandom}
	default:
		return DistInfo{Kind: DistRandom}
	}
}

// annotateJoinDist walks the optimized plan bottom-up, derives each
// subtree's worker distribution, and stamps every equi-join with the
// modeled movement strategy so it shows up in EXPLAIN. Returns the
// subtree's output distribution.
func annotateJoinDist(n plan.Node, est *Estimator, o Options) DistInfo {
	switch x := n.(type) {
	case *plan.Scan:
		return est.leafDist(x)
	case *plan.Filter:
		return annotateJoinDist(x.Child, est, o)
	case *plan.Join:
		ld := annotateJoinDist(x.Left, est, o)
		rd := annotateJoinDist(x.Right, est, o)
		lk, rk, ok := equiKeyNames(x)
		if !ok {
			return DistInfo{Kind: DistRandom}
		}
		net := ChooseJoinNet(ld, rd, lk, rk,
			est.Estimate(x.Left), est.RowWidth(x.Left),
			est.Estimate(x.Right), est.RowWidth(x.Right), o.workers())
		switch {
		case net.Broadcast:
			x.Dist = plan.JoinDistBroadcast
		case net.ShuffleLeft || net.ShuffleRight:
			x.Dist = plan.JoinDistShuffle
		default:
			x.Dist = plan.JoinDistColocated
		}
		if rd.Kind == DistReplicated || net.Broadcast {
			return ld
		}
		out := joinOutDist(net, ld, lk)
		if x.Type != exec.JoinInner {
			// Semi/anti/outer joins emit only left columns; the left-side
			// derivation still holds.
			return out
		}
		return out
	default:
		// Projections, aggregations, sorts etc.: recurse so nested joins
		// get annotated, but report an unknown distribution (the cluster
		// layer re-derives the truth at execution time).
		for _, ch := range n.Children() {
			annotateJoinDist(ch, est, o)
		}
		return DistInfo{Kind: DistRandom}
	}
}

// equiKeyNames extracts the plain column names of a join's equi keys;
// ok is false when any key is not a simple column or there are none.
func equiKeyNames(j *plan.Join) (lk, rk []string, ok bool) {
	if len(j.EquiLeft) == 0 {
		return nil, nil, false
	}
	for i := range j.EquiLeft {
		lc, lok := j.EquiLeft[i].(*expr.Col)
		rc, rok := j.EquiRight[i].(*expr.Col)
		if !lok || !rok {
			return nil, nil, false
		}
		lk = append(lk, lc.Name)
		rk = append(rk, rc.Name)
	}
	return lk, rk, true
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
