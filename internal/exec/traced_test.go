package exec

import (
	"testing"

	"repro/internal/network"
	"repro/internal/obs"
	"repro/internal/types"
)

func TestTracedOperatorCounts(t *testing.T) {
	sch := types.NewSchema(types.Column{Name: "x", Kind: types.KindInt})
	rows := []types.Row{{types.NewInt(1)}, {types.NewInt(2)}, {types.NewInt(3)}}
	tr := obs.NewQueryTrace(1, "")
	sp := tr.StartSpan("Source", 0)
	op := NewTraced(NewSource(sch, rows), sp)
	got, err := Collect(op)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("collected %d rows", len(got))
	}
	snap := tr.Spans()[0]
	if snap.RowsOut != 3 {
		t.Errorf("span rows_out = %d, want 3", snap.RowsOut)
	}
	if snap.WallNS <= 0 {
		t.Errorf("span wall = %d, want > 0", snap.WallNS)
	}
	// Nil span: no wrapper at all (the disabled fast path).
	plain := NewTraced(NewSource(sch, rows), nil)
	if _, ok := plain.(*Traced); ok {
		t.Fatal("nil span must not allocate a wrapper")
	}
}

func TestCountingEndpoint(t *testing.T) {
	f := network.NewFabric([]int{0, 1}, 16)
	defer f.CloseAll()
	e0, _ := f.Endpoint(0)
	tr := obs.NewQueryTrace(1, "")
	sp := tr.StartSpan("Send", 0)
	ep := NewCountingEndpoint(e0, sp)
	if err := ep.Send(1, 1, "ch", make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(0, 0, "ch", make([]byte, 99)); err != nil { // self: loopback, uncounted
		t.Fatal(err)
	}
	snap := tr.Spans()[0]
	if snap.NetBytes != 32 || snap.NetMsgs != 1 {
		t.Errorf("span net = %dB/%d msgs, want 32/1", snap.NetBytes, snap.NetMsgs)
	}
	if got := f.Meter().TotalBytes(); got != 32 {
		t.Errorf("meter bytes = %d, want 32 (same loopback rule)", got)
	}
	if NewCountingEndpoint(e0, nil) != e0 {
		t.Fatal("nil span must return the endpoint unwrapped")
	}
}
