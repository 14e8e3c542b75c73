// DPsize join-order enumeration over left-deep trees. Cardinalities of
// relation subsets are order-independent (independent-selectivity model
// over a spanning forest of the equality conditions), so the DP state is
// one best plan per subset bitmask: best[S] = min over last relation r of
// cost(best[S\r] ⋈ r), with the network term of each step costed from the
// tracked worker distribution. Above DPMaxRelations the enumerator falls
// back to the paper's greedy ordering. PlanCost scores any fixed order with
// the exact same model, which is what makes "DP never costs worse than
// greedy" a provable invariant rather than a hope.
package opt

import (
	"math"
	"math/bits"

	"repro/internal/exec"
	"repro/internal/expr"
	"repro/internal/plan"
)

// DPMaxRelations bounds exhaustive enumeration: 2^n subsets with an O(n^2)
// inner loop is fine to 12 relations, past that greedy takes over.
const DPMaxRelations = 12

// condInfo pre-resolves one join condition against the leaf set.
type condInfo struct {
	mask uint64  // leaves referenced (0 when not fully resolvable)
	sel  float64 // selectivity applied when the condition is subsumed
	// eqL/eqR are the two column names of a simple column equality (for
	// deriving partitioning keys and forest-based dedup); empty otherwise.
	eqL, eqR string
}

// costModel is the shared DP / PlanCost costing state for one join cluster.
type costModel struct {
	est     *Estimator
	leaves  []plan.Node
	infos   []condInfo
	card    []float64 // per-leaf estimated rows
	width   []float64 // per-leaf estimated row width (bytes)
	dist    []DistInfo
	workers int
	memo    map[uint64]float64
}

func newCostModel(leaves []plan.Node, conds []expr.Expr, est *Estimator, o Options) *costModel {
	m := &costModel{
		est:     est,
		leaves:  leaves,
		infos:   resolveConds(leaves, conds, est),
		card:    make([]float64, len(leaves)),
		width:   make([]float64, len(leaves)),
		dist:    make([]DistInfo, len(leaves)),
		workers: o.workers(),
		memo:    map[uint64]float64{},
	}
	for i, l := range leaves {
		m.card[i] = math.Max(1, est.Estimate(l))
		m.width[i] = est.RowWidth(l)
		m.dist[i] = LeafDist(l)
	}
	return m
}

// subsetCard estimates |⨝ S| under the independent-selectivity model: the
// product of leaf cardinalities times the selectivity of a spanning forest
// of the equality conditions inside S (union-find skips redundant
// transitive equalities so they are not double-counted), times every
// non-equality condition inside S.
func (m *costModel) subsetCard(S uint64) float64 {
	if c, ok := m.memo[S]; ok {
		return c
	}
	c := 1.0
	for i := range m.leaves {
		if S&(1<<uint(i)) != 0 {
			c *= m.card[i]
		}
	}
	parent := make([]int, len(m.leaves))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, ci := range m.infos {
		if ci.mask == 0 || ci.mask&S != ci.mask {
			continue
		}
		if ci.eqL != "" && bits.OnesCount64(ci.mask) == 2 {
			a := bits.TrailingZeros64(ci.mask)
			b := bits.TrailingZeros64(ci.mask &^ (1 << uint(a)))
			ra, rb := find(a), find(b)
			if ra == rb {
				continue // transitive duplicate inside S
			}
			parent[ra] = rb
		}
		c *= ci.sel
	}
	c = math.Max(1, c)
	m.memo[S] = c
	return c
}

// joinKeys collects the equality keys connecting subset S to leaf r.
func (m *costModel) joinKeys(S uint64, r int) (lk, rk []string) {
	rbit := uint64(1) << uint(r)
	for _, ci := range m.infos {
		if ci.eqL == "" || ci.mask&rbit == 0 {
			continue
		}
		other := ci.mask &^ rbit
		if other == 0 || other&S != other {
			continue
		}
		if leafHasCol(m.leaves[r], ci.eqR) && !leafHasCol(m.leaves[r], ci.eqL) {
			lk, rk = append(lk, ci.eqL), append(rk, ci.eqR)
		} else if leafHasCol(m.leaves[r], ci.eqL) && !leafHasCol(m.leaves[r], ci.eqR) {
			lk, rk = append(lk, ci.eqR), append(rk, ci.eqL)
		}
	}
	return lk, rk
}

// connectedTo reports whether any condition joins subset S with leaf r.
func (m *costModel) connectedTo(S uint64, r int) bool {
	rbit := uint64(1) << uint(r)
	for _, ci := range m.infos {
		if ci.mask != 0 && ci.mask&rbit != 0 && ci.mask&S != 0 && ci.mask&^(S|rbit) == 0 {
			return true
		}
	}
	return false
}

// subsetWidth is the row width of the intermediate joining subset S (a
// left-deep intermediate carries every joined column).
func (m *costModel) subsetWidth(S uint64) float64 {
	var w float64
	for i := range m.leaves {
		if S&(1<<uint(i)) != 0 {
			w += m.width[i]
		}
	}
	return w
}

// step costs joining leaf r onto the subtree covering S with distribution
// d, returning the step cost and the output distribution.
func (m *costModel) step(S uint64, d DistInfo, r int) (float64, DistInfo) {
	lRows := m.subsetCard(S)
	rRows := m.card[r]
	out := m.subsetCard(S | 1<<uint(r))
	lk, rk := m.joinKeys(S, r)
	var net JoinNet
	cost := 0.0
	if m.connectedTo(S, r) {
		net = ChooseJoinNet(exec.JoinInner,
			JoinSide{Dist: d, Keys: lk, Rows: lRows, Width: m.subsetWidth(S)},
			JoinSide{Dist: m.dist[r], Keys: rk, Rows: rRows, Width: m.width[r]}, m.workers)
	} else {
		// Cross join: legal but punished so it is only chosen when the
		// join graph is genuinely disconnected.
		cost += lRows * rRows / CostRowsPerSec
	}
	cost += joinCost(lRows, rRows, out, net, m.workers)
	return cost, joinOutDist(net, d, m.dist[r], lk)
}

// dpState is one subset's best left-deep plan.
type dpState struct {
	cost  float64
	order []int
	dist  DistInfo
}

// dpOrder returns the cost-optimal left-deep join order, or nil when the
// cluster is too big (caller falls back to greedy).
func dpOrder(leaves []plan.Node, conds []expr.Expr, est *Estimator, o Options) []plan.Node {
	n := len(leaves)
	if n < 2 || n > DPMaxRelations {
		return nil
	}
	m := newCostModel(leaves, conds, est, o)
	best := make(map[uint64]*dpState, 1<<uint(n))
	for i := 0; i < n; i++ {
		best[1<<uint(i)] = &dpState{order: []int{i}, dist: m.dist[i]}
	}
	full := uint64(1)<<uint(n) - 1
	// A numeric sweep visits every S after all its subsets (S\r < S).
	for S := uint64(1); S <= full; S++ {
		if bits.OnesCount64(S) < 2 {
			continue
		}
		var bestS *dpState
		for r := 0; r < n; r++ {
			rbit := uint64(1) << uint(r)
			if S&rbit == 0 {
				continue
			}
			prev := best[S&^rbit]
			if prev == nil {
				continue
			}
			stepCost, outDist := m.step(S&^rbit, prev.dist, r)
			cost := prev.cost + stepCost
			if bestS == nil || cost < bestS.cost {
				order := make([]int, 0, len(prev.order)+1)
				order = append(order, prev.order...)
				order = append(order, r)
				bestS = &dpState{cost: cost, order: order, dist: outDist}
			}
		}
		if bestS != nil {
			best[S] = bestS
		}
	}
	final := best[full]
	if final == nil {
		return nil
	}
	out := make([]plan.Node, n)
	for i, li := range final.order {
		out[i] = leaves[li]
	}
	return out
}

// resolveConds binds each condition to the set of leaves it references.
// Conditions whose columns cannot all be found get mask 0 and are ignored.
func resolveConds(leaves []plan.Node, conds []expr.Expr, est *Estimator) []condInfo {
	out := make([]condInfo, 0, len(conds))
	for _, c := range conds {
		ci := condInfo{sel: 0.5}
		ok := true
		for _, name := range expr.Columns(c) {
			found := false
			for li, l := range leaves {
				if leafHasCol(l, name) {
					ci.mask |= 1 << uint(li)
					found = true
					break
				}
			}
			if !found {
				ok = false
			}
		}
		if !ok {
			ci.mask = 0
		}
		if b, isBin := c.(*expr.Bin); isBin && b.Op == expr.OpEq {
			lc, lok := b.L.(*expr.Col)
			rc, rok := b.R.(*expr.Col)
			if lok && rok {
				ci.eqL, ci.eqR = lc.Name, rc.Name
				// Equality selectivity: 1/max(NDV of either end).
				ndv := 1.0
				for li, l := range leaves {
					if ci.mask&(1<<uint(li)) == 0 {
						continue
					}
					for _, nm := range []string{lc.Name, rc.Name} {
						if leafHasCol(l, nm) {
							ndv = math.Max(ndv, est.exprNDV(l, &expr.Col{Index: -1, Name: nm}))
						}
					}
				}
				ci.sel = 1 / ndv
			}
		} else if ci.mask != 0 {
			// Non-equality join condition: use the atom model against the
			// first referencing leaf.
			for li, l := range leaves {
				if ci.mask&(1<<uint(li)) != 0 {
					ci.sel = est.atomSelectivity(c, l)
					break
				}
			}
		}
		out = append(out, ci)
	}
	return out
}

// leafHasCol reports whether a leaf's schema resolves the column name.
func leafHasCol(n plan.Node, name string) bool {
	return n.Schema().Find(name) >= 0
}
