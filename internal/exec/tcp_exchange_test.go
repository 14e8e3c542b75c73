package exec

import (
	"sync"
	"testing"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/types"
)

// TestShuffleOverTCP runs a hierarchical shuffle over real TCP sockets —
// the deployment path of cmd/hrdbms-server, exercising framing, lazy
// dialing, and demultiplexing under the same exchange protocol the
// in-process fabric uses.
func TestShuffleOverTCP(t *testing.T) {
	const n = 4
	peers := map[int]string{}
	eps := make([]*network.TCPEndpoint, n)
	for i := 0; i < n; i++ {
		ep, err := network.NewTCPEndpoint(i, "127.0.0.1:0", peers)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		eps[i] = ep
		peers[i] = ep.Addr()
	}
	ids := []int{0, 1, 2, 3}
	spec := ShuffleSpec{Channel: "tcp-shuffle", Nodes: ids, Nmax: 2, Hierarchical: true}
	sch := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindString},
	)

	results := make([][]types.Row, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var rows []types.Row
			for k := 0; k < 100; k++ {
				rows = append(rows, types.Row{
					types.NewInt(int64(i*100 + k)),
					types.NewString("payload"),
				})
			}
			sh, err := NewShuffle(nil, eps[i], spec, NewSource(sch, rows), ColRefs(0), types.Schema{})
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
	seen := map[int64]bool{}
	for node, rows := range results {
		for _, r := range rows {
			if seen[r[0].Int()] {
				t.Fatalf("row %d delivered twice", r[0].Int())
			}
			seen[r[0].Int()] = true
			want := int(types.HashRow(r, []int{0}) % uint64(n))
			if want != node {
				t.Fatalf("row %d on node %d, want %d", r[0].Int(), node, want)
			}
		}
	}
	if len(seen) != n*100 {
		t.Fatalf("saw %d rows, want %d", len(seen), n*100)
	}
}

// runMeteredShuffle drives the same 4-node hierarchical shuffle over an
// arbitrary set of endpoints and returns how many rows came out. The row
// placement and batching are deterministic, so the traffic a meter sees is
// identical regardless of transport.
func runMeteredShuffle(t *testing.T, eps []network.Endpoint, channel string) int {
	t.Helper()
	n := len(eps)
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	spec := ShuffleSpec{Channel: channel, Nodes: ids, Nmax: 2, Hierarchical: true}
	sch := types.NewSchema(
		types.Column{Name: "k", Kind: types.KindInt},
		types.Column{Name: "v", Kind: types.KindString},
	)
	results := make([][]types.Row, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var rows []types.Row
			for k := 0; k < 100; k++ {
				rows = append(rows, types.Row{
					types.NewInt(int64(i*100 + k)),
					types.NewString("payload"),
				})
			}
			sh, err := NewShuffle(nil, eps[i], spec, NewSource(sch, rows), ColRefs(0), types.Schema{})
			if err != nil {
				errs[i] = err
				return
			}
			results[i], errs[i] = Collect(sh)
		}(i)
	}
	wg.Wait()
	total := 0
	for i, err := range errs {
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		total += len(results[i])
	}
	return total
}

// TestTCPMeterParityWithInproc: the same exchange puts the same traffic on
// either transport. The in-process fabric meters itself; the TCP endpoints
// send through the counting wrapper a traced query's exchanges use, so the
// bytes and messages a span reports for an exchange over sockets are the
// ones the fabric meter reports for it in-process.
func TestTCPMeterParityWithInproc(t *testing.T) {
	const n = 4
	fabric := network.NewFabric([]int{0, 1, 2, 3}, 1024)
	defer fabric.CloseAll()
	inEps := make([]network.Endpoint, n)
	for i := 0; i < n; i++ {
		ep, err := fabric.Endpoint(i)
		if err != nil {
			t.Fatal(err)
		}
		inEps[i] = ep
	}
	inRows := runMeteredShuffle(t, inEps, "q1.par")

	peers := map[int]string{}
	tr := obs.NewQueryTrace(1, "")
	sp := tr.StartSpan("Shuffle", 0)
	tcpEps := make([]network.Endpoint, n)
	for i := 0; i < n; i++ {
		ep, err := network.NewTCPEndpoint(i, "127.0.0.1:0", peers)
		if err != nil {
			t.Fatal(err)
		}
		defer ep.Close()
		peers[i] = ep.Addr()
		tcpEps[i] = NewCountingEndpoint(ep, sp)
	}
	tcpRows := runMeteredShuffle(t, tcpEps, "q1.par")

	if inRows != tcpRows || inRows != n*100 {
		t.Fatalf("rows: inproc=%d tcp=%d want %d", inRows, tcpRows, n*100)
	}
	im, tcp := fabric.Meter(), tr.Spans()[0]
	if tcp.NetBytes == 0 || tcp.NetMsgs == 0 {
		t.Fatal("TCP endpoints counted nothing")
	}
	if tcp.NetBytes != im.TotalBytes() {
		t.Errorf("bytes: tcp=%d inproc=%d", tcp.NetBytes, im.TotalBytes())
	}
	if tcp.NetMsgs != im.TotalMessages() {
		t.Errorf("messages: tcp=%d inproc=%d", tcp.NetMsgs, im.TotalMessages())
	}
}

// TestGatherOverTCP checks SendAll/Recv over sockets.
func TestGatherOverTCP(t *testing.T) {
	peers := map[int]string{}
	coord, err := network.NewTCPEndpoint(0, "127.0.0.1:0", peers)
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	worker, err := network.NewTCPEndpoint(1, "127.0.0.1:0", peers)
	if err != nil {
		t.Fatal(err)
	}
	defer worker.Close()
	peers[0] = coord.Addr()
	peers[1] = worker.Addr()

	sch := types.NewSchema(types.Column{Name: "x", Kind: types.KindInt})
	go func() {
		var rows []types.Row
		for i := int64(0); i < 500; i++ {
			rows = append(rows, types.Row{types.NewInt(i)})
		}
		_ = SendAll(nil, worker, 0, "tcp-gather", NewSource(sch, rows))
	}()
	got, err := Collect(NewRecv(coord, "tcp-gather", 1, sch))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 500 {
		t.Fatalf("gathered %d rows", len(got))
	}
}
