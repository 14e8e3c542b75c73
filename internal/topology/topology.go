// Package topology implements the two communication topologies HRDBMS uses
// to enforce a constant limit Nmax on the number of neighbors a node
// communicates with (Section IV):
//
//   - Tree: hierarchical operations (aggregation, merge sort, 2PC broadcast)
//     run over a tree with fan-out Nmax-1, so each node talks only to its
//     parent and children.
//   - Ring: n-to-m operations (shuffle) run over a variant of the binomial
//     graph: nodes sit on a ring and node i links forward to nodes at
//     distances b^0, b^1, b^2, … where the base b = n^(1/Nmax), giving at
//     most Nmax out-links per node and logarithmic routing diameter. Nodes
//     on a route act as intermediate communication hubs forwarding data
//     from senders to receivers.
package topology

import (
	"fmt"
	"math"
)

// Tree is a k-ary tree over node IDs 0..N-1 with node 0 as root and
// fan-out Nmax-1.
type Tree struct {
	N      int
	Fanout int
}

// NewTree builds a tree topology for n nodes with neighbor limit nmax
// (fan-out nmax-1; a node's neighbor set is its parent plus children).
func NewTree(n, nmax int) (Tree, error) {
	if n < 1 {
		return Tree{}, fmt.Errorf("topology: tree needs at least 1 node, got %d", n)
	}
	if nmax < 2 {
		return Tree{}, fmt.Errorf("topology: tree needs nmax >= 2, got %d", nmax)
	}
	return Tree{N: n, Fanout: nmax - 1}, nil
}

// Parent returns the parent of node i, or -1 for the root.
func (t Tree) Parent(i int) int {
	if i == 0 {
		return -1
	}
	return (i - 1) / t.Fanout
}

// Children returns the children of node i in ascending order.
func (t Tree) Children(i int) []int {
	var out []int
	for c := i*t.Fanout + 1; c <= i*t.Fanout+t.Fanout && c < t.N; c++ {
		out = append(out, c)
	}
	return out
}

// Ring is the binomial-graph n-to-m topology: node i links forward to
// (i + d) mod N for each d in Dists.
type Ring struct {
	N     int
	Base  int
	Dists []int // ascending powers of Base below N
}

// NewRing builds the ring for n nodes with neighbor limit nmax. The base is
// ceil(n^(1/nmax)) (minimum 2), so the number of forward links per node is
// at most nmax.
func NewRing(n, nmax int) (Ring, error) {
	if n < 1 {
		return Ring{}, fmt.Errorf("topology: ring needs at least 1 node, got %d", n)
	}
	if nmax < 1 {
		return Ring{}, fmt.Errorf("topology: ring needs nmax >= 1, got %d", nmax)
	}
	b := int(math.Ceil(math.Pow(float64(n), 1/float64(nmax))))
	if b < 2 {
		b = 2
	}
	r := Ring{N: n, Base: b}
	for d := 1; d < n; d *= b {
		r.Dists = append(r.Dists, d)
		if d > n/b {
			break
		}
	}
	return r, nil
}

// NextHop returns the next node on the greedy route from 'from' to 'to':
// take the largest link distance not exceeding the remaining ring distance.
func (r Ring) NextHop(from, to int) int {
	if from == to {
		return to
	}
	rem := (to - from + r.N) % r.N
	best := 1
	for _, d := range r.Dists {
		if d <= rem {
			best = d
		} else {
			break
		}
	}
	return (from + best) % r.N
}

// Route returns the full hop path from 'from' to 'to', excluding 'from'
// and including 'to'.
func (r Ring) Route(from, to int) []int {
	var path []int
	cur := from
	for cur != to {
		cur = r.NextHop(cur, to)
		path = append(path, cur)
	}
	return path
}
