package exec

import (
	"sync"
	"testing"

	"repro/internal/network"
	"repro/internal/testutil"
	"repro/internal/types"
)

// runShuffle executes a shuffle across n in-process nodes, each contributing
// perNode rows keyed 0..keys-1, and returns the rows each node received.
func runShuffle(t *testing.T, n, perNode, keys, nmax int, hierarchical bool) ([][]types.Row, *network.Meter) {
	t.Helper()
	testutil.AssertNoGoroutineLeak(t)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	fabric := network.NewFabric(ids, 256)
	defer fabric.CloseAll()
	spec := ShuffleSpec{Channel: "t-shuffle", Nodes: ids, Nmax: nmax, Hierarchical: hierarchical}

	results := make([][]types.Row, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, err := fabric.Endpoint(i)
			if err != nil {
				errs[i] = err
				return
			}
			var rows []types.Row
			for k := 0; k < perNode; k++ {
				rows = append(rows, types.Row{
					types.NewInt(int64((i*perNode + k) % keys)), // key
					types.NewInt(int64(i*perNode + k)),          // payload id
				})
			}
			src := NewSource(intSchema("k", "v"), rows)
			sh, err := NewShuffle(nil, ep, spec, src, ColRefs(0), types.Schema{})
			if err != nil {
				errs[i] = err
				return
			}
			out, err := Collect(sh)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = out
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	return results, fabric.Meter()
}

func checkShuffleCorrect(t *testing.T, results [][]types.Row, n, total int) {
	t.Helper()
	seen := map[int64]int{}
	for node, rows := range results {
		for _, r := range rows {
			seen[r[1].Int()]++
			// Placement invariant: key hash mod n == node.
			wantNode := int(types.HashRow(r, []int{0}) % uint64(n))
			if wantNode != node {
				t.Fatalf("row key %d landed on node %d, want %d", r[0].Int(), node, wantNode)
			}
		}
	}
	if len(seen) != total {
		t.Fatalf("saw %d distinct rows, want %d", len(seen), total)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("row %d delivered %d times", id, c)
		}
	}
}

func TestShuffleDirect(t *testing.T) {
	n, perNode := 4, 200
	results, meter := runShuffle(t, n, perNode, 16, 0, false)
	checkShuffleCorrect(t, results, n, n*perNode)
	// Direct shuffle: each node talks with up to n-1 peers.
	if deg := meter.MaxNodeDegree(); deg < n-1 {
		t.Errorf("direct shuffle degree = %d, expected %d", deg, n-1)
	}
}

func TestShuffleHierarchical(t *testing.T) {
	n, perNode := 9, 100
	nmax := 2 // base = ceil(9^(1/2)) = 3, dists {1, 3}: degree 2
	results, meter := runShuffle(t, n, perNode, 16, nmax, true)
	checkShuffleCorrect(t, results, n, n*perNode)
	// The whole point: no node talks to more than ~2*nmax peers (nmax out
	// plus nmax in), even though all 9 nodes exchanged data.
	maxAllowed := 2 * nmax
	if deg := meter.MaxNodeDegree(); deg > maxAllowed {
		t.Errorf("hierarchical shuffle degree = %d, want <= %d", deg, maxAllowed)
	}
}

func TestShuffleHierarchicalMoreBytesFewerLinks(t *testing.T) {
	// Hub forwarding trades extra transfer volume for bounded connections.
	n, perNode := 8, 100
	_, direct := runShuffle(t, n, perNode, 64, 0, false)
	directBytes, directConns := direct.TotalBytes(), direct.Connections()
	_, hier := runShuffle(t, n, perNode, 64, 2, true)
	hierBytes, hierConns := hier.TotalBytes(), hier.Connections()
	if hierConns >= directConns {
		t.Errorf("hierarchical connections %d should be < direct %d", hierConns, directConns)
	}
	if hierBytes < directBytes {
		t.Errorf("hierarchical bytes %d should be >= direct %d (forwarding)", hierBytes, directBytes)
	}
}

func TestShuffleSingleNode(t *testing.T) {
	results, _ := runShuffle(t, 1, 50, 4, 0, false)
	if len(results[0]) != 50 {
		t.Fatalf("single node shuffle = %d rows", len(results[0]))
	}
}

func TestSendAllRecv(t *testing.T) {
	fabric := network.NewFabric([]int{0, 1, 2}, 64)
	defer fabric.CloseAll()
	sch := intSchema("a")
	var wg sync.WaitGroup
	for w := 1; w <= 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ep, _ := fabric.Endpoint(w)
			src := NewSource(sch, intRows([]int64{int64(w * 10)}, []int64{int64(w*10 + 1)}))
			if err := SendAll(nil, ep, 0, "gather", src); err != nil {
				t.Errorf("worker %d: %v", w, err)
			}
		}(w)
	}
	ep0, _ := fabric.Endpoint(0)
	recv := NewRecv(ep0, "gather", 2, sch)
	rows, err := Collect(recv)
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if len(rows) != 4 {
		t.Fatalf("gathered %d rows", len(rows))
	}
}

// TestShuffleBroadcastFlag exercises ShuffleSpec.Broadcast: every node's
// input rows must arrive at every node (the broadcast-join build side),
// with no hashing involved.
func TestShuffleBroadcastFlag(t *testing.T) { requireBroadcast(t, true) }

// TestBroadcastExchange is the same exchange over direct links, as the
// baseline profiles run it.
func TestBroadcastExchange(t *testing.T) { requireBroadcast(t, false) }

func requireBroadcast(t *testing.T, hierarchical bool) {
	testutil.AssertNoGoroutineLeak(t)
	const n, perNode = 4, 25
	ids := []int{0, 1, 2, 3}
	fabric := network.NewFabric(ids, 256)
	defer fabric.CloseAll()
	spec := ShuffleSpec{Channel: "t-bcast", Nodes: ids, Nmax: 3, Hierarchical: hierarchical, Broadcast: true}

	results := make([][]types.Row, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, err := fabric.Endpoint(i)
			if err != nil {
				errs[i] = err
				return
			}
			var rows []types.Row
			for k := 0; k < perNode; k++ {
				rows = append(rows, types.Row{types.NewInt(int64(i*perNode + k))})
			}
			src := NewSource(intSchema("v"), rows)
			sh, err := NewShuffle(nil, ep, spec, src, nil, types.Schema{})
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = Collect(sh)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
	}
	for node, rows := range results {
		if len(rows) != n*perNode {
			t.Fatalf("node %d received %d rows, want %d (full copy)", node, len(rows), n*perNode)
		}
		seen := map[int64]bool{}
		for _, r := range rows {
			seen[r[0].Int()] = true
		}
		if len(seen) != n*perNode {
			t.Fatalf("node %d: %d distinct of %d — duplicates replaced rows", node, len(seen), n*perNode)
		}
	}
}

func TestTreeReduceAggregation(t *testing.T) {
	// 7 nodes, fan-out 2: hierarchical pre-aggregation up the tree, as the
	// paper's tree-topology aggregation does.
	const n = 7
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	fabric := network.NewFabric(ids, 64)
	defer fabric.CloseAll()
	spec := TreeReduceSpec{Channel: "tr", Nodes: ids, Nmax: 3}

	aggSpecs := []AggSpec{{Kind: AggSum, Name: "s"}, {Kind: AggCount, Name: "c"}}
	var rootOut []types.Row
	var rootErr error
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, _ := fabric.Endpoint(i)
			// Each node's local partial: one group (g=1), value = node id.
			local := NewHashAggregate(nil, NewSource(intSchema("g", "v"),
				intRows([]int64{1, int64(i)}, []int64{1, int64(i * 10)})),
				ColRefs(0),
				[]AggSpec{{Kind: AggSum, Arg: col(1), Name: "s"}, {Kind: AggCount, Name: "c"}},
				AggPartial)
			combine := func(ins []Operator) Operator {
				var merged Operator = NewUnion(ins...)
				return NewHashAggregate(nil, merged, ColRefs(0), aggSpecs, AggMerge)
			}
			op, err := RunTreeReduce(nil, ep, spec, local, combine)
			if err != nil {
				rootErr = err
				return
			}
			if op != nil { // root
				// Final pass converts merged states to values.
				final := NewHashAggregate(nil, op, ColRefs(0), aggSpecs, AggFinal)
				rootOut, rootErr = Collect(final)
			}
		}(i)
	}
	wg.Wait()
	if rootErr != nil {
		t.Fatal(rootErr)
	}
	if len(rootOut) != 1 {
		t.Fatalf("root groups = %v", rootOut)
	}
	// Sum over all nodes: sum(i + 10i) for i in 0..6 = 11 * 21 = 231.
	if rootOut[0][1].Float() != 231 {
		t.Errorf("tree sum = %v, want 231", rootOut[0][1])
	}
	if rootOut[0][2].Int() != 14 { // 2 rows per node × 7 nodes
		t.Errorf("tree count = %v, want 14", rootOut[0][2])
	}
	// Degree bound: no node should exceed nmax neighbors.
	if deg := fabric.Meter().MaxNodeDegree(); deg > 3 {
		t.Errorf("tree reduce degree = %d, want <= 3", deg)
	}
}

func TestTreeReduceMergeSort(t *testing.T) {
	// Distributed merge sort: leaves sort locally, inner nodes merge.
	const n = 5
	ids := []int{0, 1, 2, 3, 4}
	fabric := network.NewFabric(ids, 64)
	defer fabric.CloseAll()
	spec := TreeReduceSpec{Channel: "ms", Nodes: ids, Nmax: 3}
	keys := []SortKey{{Col: 0}}

	var rootOut []types.Row
	var rootErr error
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ep, _ := fabric.Endpoint(i)
			var rows []types.Row
			for k := 0; k < 20; k++ {
				rows = append(rows, types.Row{types.NewInt(int64((k*7 + i*3) % 100))})
			}
			local := NewSort(nil, NewSource(intSchema("x"), rows), keys)
			combine := func(ins []Operator) Operator { return NewMergeOperators(ins, keys) }
			op, err := RunTreeReduce(nil, ep, spec, local, combine)
			if err != nil {
				rootErr = err
				return
			}
			if op != nil {
				rootOut, rootErr = Collect(op)
			}
		}(i)
	}
	wg.Wait()
	if rootErr != nil {
		t.Fatal(rootErr)
	}
	if len(rootOut) != 100 {
		t.Fatalf("merged rows = %d, want 100", len(rootOut))
	}
	for i := 1; i < len(rootOut); i++ {
		if rootOut[i][0].Int() < rootOut[i-1][0].Int() {
			t.Fatalf("merge sort output out of order at %d", i)
		}
	}
}

func TestShuffleLargeHierarchical(t *testing.T) {
	// 16 nodes with nmax 2 (base 4): stress hub forwarding and termination.
	if testing.Short() {
		t.Skip("short mode")
	}
	n := 16
	results, meter := runShuffle(t, n, 300, 128, 2, true)
	checkShuffleCorrect(t, results, n, n*300)
	if deg := meter.MaxNodeDegree(); deg > 4 {
		t.Errorf("degree = %d, want <= 4", deg)
	}
}
