package topology

import (
	"testing"
	"testing/quick"
)

func TestTreeStructure(t *testing.T) {
	tr, err := NewTree(10, 4) // fan-out 3
	if err != nil {
		t.Fatal(err)
	}
	if tr.Parent(0) != -1 {
		t.Error("root parent should be -1")
	}
	if got := tr.Children(0); len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Errorf("children(0) = %v", got)
	}
	if got := tr.Children(3); len(got) != 0 {
		t.Errorf("children(3) = %v, want none (only 10 nodes)", got)
	}
	for i := 1; i < 10; i++ {
		p := tr.Parent(i)
		found := false
		for _, c := range tr.Children(p) {
			if c == i {
				found = true
			}
		}
		if !found {
			t.Errorf("node %d not among children of its parent %d", i, p)
		}
	}
}

func TestTreeDegreeBound(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16, 96, 250} {
		for _, nmax := range []int{2, 3, 4, 8} {
			tr, err := NewTree(n, nmax)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < n; i++ {
				d := len(tr.Children(i)) // plus the parent, for all but the root
				if i != 0 {
					d++
				}
				if d > nmax {
					t.Errorf("n=%d nmax=%d: node %d degree %d exceeds limit", n, nmax, i, d)
				}
			}
		}
	}
}

// depth is the number of levels: the last node is on the deepest one.
func depth(tr Tree) int {
	d := 1
	for i := tr.N - 1; i != 0; i = tr.Parent(i) {
		d++
	}
	return d
}

func TestTreeDepthLogarithmic(t *testing.T) {
	tr, _ := NewTree(96, 4)
	if d := depth(tr); d > 5 {
		t.Errorf("96 nodes fan-out 3: depth %d, want <= 5", d)
	}
	tr2, _ := NewTree(1, 4)
	if depth(tr2) != 1 {
		t.Errorf("singleton depth = %d", depth(tr2))
	}
}

func TestTreeLeaves(t *testing.T) {
	tr, _ := NewTree(7, 3) // fan-out 2: 0->{1,2}, 1->{3,4}, 2->{5,6}
	var leaves []int
	for i := 0; i < tr.N; i++ {
		if len(tr.Children(i)) == 0 {
			leaves = append(leaves, i)
		}
	}
	if len(leaves) != 4 {
		t.Errorf("leaves = %v", leaves)
	}
}

func TestTreeErrors(t *testing.T) {
	if _, err := NewTree(0, 4); err == nil {
		t.Error("0 nodes should fail")
	}
	if _, err := NewTree(4, 1); err == nil {
		t.Error("nmax 1 should fail")
	}
}

func TestRingDegreeBound(t *testing.T) {
	for _, n := range []int{2, 8, 16, 96, 128, 500} {
		for _, nmax := range []int{2, 3, 4, 6} {
			r, err := NewRing(n, nmax)
			if err != nil {
				t.Fatal(err)
			}
			// Every node links forward once per distance.
			if len(r.Dists) > nmax {
				t.Errorf("n=%d nmax=%d: degree %d exceeds limit (base %d, dists %v)",
					n, nmax, len(r.Dists), r.Base, r.Dists)
			}
		}
	}
}

func TestRingRoutingReachesEverything(t *testing.T) {
	for _, n := range []int{1, 2, 7, 48, 96} {
		r, err := NewRing(n, 4)
		if err != nil {
			t.Fatal(err)
		}
		for s := 0; s < n; s++ {
			for dst := 0; dst < n; dst++ {
				path := r.Route(s, dst)
				if s == dst {
					if len(path) != 0 {
						t.Fatalf("self route should be empty")
					}
					continue
				}
				if len(path) == 0 || path[len(path)-1] != dst {
					t.Fatalf("n=%d: route %d->%d = %v", n, s, dst, path)
				}
				// Every hop must follow an actual link.
				cur := s
				for _, hop := range path {
					legal := false
					for _, d := range r.Dists {
						if (cur+d)%r.N == hop {
							legal = true
						}
					}
					if !legal {
						t.Fatalf("n=%d: route %d->%d uses non-link %d->%d", n, s, dst, cur, hop)
					}
					cur = hop
				}
			}
		}
	}
}

// diameter is the longest greedy route over all pairs.
func diameter(r Ring) int {
	longest := 0
	for s := 0; s < r.N; s++ {
		for t := 0; t < r.N; t++ {
			longest = max(longest, len(r.Route(s, t)))
		}
	}
	return longest
}

func TestRingDiameterLogarithmic(t *testing.T) {
	r, _ := NewRing(96, 4)
	// base = ceil(96^(1/4)) = 4; worst-case hops ≈ (base-1)*levels.
	if d := diameter(r); d > 12 {
		t.Errorf("diameter = %d, too large for 96 nodes nmax=4", d)
	}
	// Direct topology comparison: with nmax = n the ring degenerates
	// toward direct links and the diameter shrinks.
	r2, _ := NewRing(96, 96)
	if diameter(r2) >= diameter(r) {
		t.Errorf("larger nmax should not increase diameter: %d vs %d", diameter(r2), diameter(r))
	}
}

func TestRingNextHopProgress(t *testing.T) {
	r, _ := NewRing(50, 3)
	f := func(from, to uint8) bool {
		s := int(from) % 50
		d := int(to) % 50
		if s == d {
			return r.NextHop(s, d) == d
		}
		h := r.NextHop(s, d)
		// Hop must strictly reduce ring distance.
		before := (d - s + 50) % 50
		after := (d - h + 50) % 50
		return after < before
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRingPaperExample(t *testing.T) {
	// For n nodes and Nmax=2 the base is sqrt(n): 16 nodes → base 4,
	// distances {1, 4}.
	r, _ := NewRing(16, 2)
	if r.Base != 4 {
		t.Errorf("base = %d, want 4", r.Base)
	}
	if len(r.Dists) != 2 || r.Dists[0] != 1 || r.Dists[1] != 4 {
		t.Errorf("dists = %v, want [1 4]", r.Dists)
	}
	if h := r.NextHop(15, 0); h != 0 {
		t.Errorf("15 -> 0 wraps around over the distance-1 link, got hop %d", h)
	}
	if h := r.NextHop(15, 3); h != 3 {
		t.Errorf("15 -> 3 wraps around over the distance-4 link, got hop %d", h)
	}
}

func TestRingErrors(t *testing.T) {
	if _, err := NewRing(0, 2); err == nil {
		t.Error("0 nodes should fail")
	}
	if _, err := NewRing(4, 0); err == nil {
		t.Error("nmax 0 should fail")
	}
}
