package catalog

import (
	"testing"

	"repro/internal/types"
)

func custDef() *TableDef {
	return &TableDef{
		Name: "customer",
		Schema: types.NewSchema(
			types.Column{Name: "c_custkey", Kind: types.KindInt},
			types.Column{Name: "c_name", Kind: types.KindString},
			types.Column{Name: "c_nationkey", Kind: types.KindInt},
		),
		Part: Partitioning{Kind: PartHash, Cols: []string{"c_custkey"}},
	}
}

func TestCreateLookupDrop(t *testing.T) {
	c := New()
	if err := c.CreateTable(custDef()); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateTable(custDef()); err == nil {
		t.Error("duplicate create should fail")
	}
	tbl, err := c.Table("CUSTOMER") // case-insensitive
	if err != nil || tbl.Name != "customer" {
		t.Fatalf("lookup: %v %v", tbl, err)
	}
	if _, err := c.Table("nope"); err == nil {
		t.Error("missing table should fail")
	}
	if err := c.DropTable("customer"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Table("customer"); err == nil {
		t.Error("dropped table still visible")
	}
	if err := c.DropTable("customer"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestCreateTableValidation(t *testing.T) {
	c := New()
	bad := custDef()
	bad.Part.Cols = []string{"missing_col"}
	if err := c.CreateTable(bad); err == nil {
		t.Error("partition column not in schema should fail")
	}
	bad2 := custDef()
	bad2.Schema = types.Schema{}
	if err := c.CreateTable(bad2); err == nil {
		t.Error("empty schema should fail")
	}
	bad3 := custDef()
	bad3.Part.Cols = nil
	if err := c.CreateTable(bad3); err == nil {
		t.Error("hash partitioning without columns should fail")
	}
}

func TestHashPartitionPlacement(t *testing.T) {
	def := custDef()
	const workers = 4
	counts := make([]int, workers)
	for i := int64(0); i < 1000; i++ {
		r := types.Row{types.NewInt(i), types.NewString("x"), types.NewInt(i % 25)}
		nodes, err := def.NodeFor(r, workers)
		if err != nil || len(nodes) != 1 {
			t.Fatalf("NodeFor: %v %v", nodes, err)
		}
		counts[nodes[0]]++
		// Placement must be deterministic.
		again, _ := def.NodeFor(r, workers)
		if again[0] != nodes[0] {
			t.Fatal("placement not deterministic")
		}
	}
	for w, n := range counts {
		if n < 150 || n > 350 {
			t.Errorf("worker %d holds %d of 1000 rows — poor balance", w, n)
		}
	}
}

func TestRangePartitionPlacement(t *testing.T) {
	def := custDef()
	def.Part = Partitioning{
		Kind:   PartRange,
		Cols:   []string{"c_custkey"},
		Bounds: []types.Value{types.NewInt(100), types.NewInt(200)},
	}
	cases := map[int64]int{50: 0, 99: 0, 100: 1, 150: 1, 200: 2, 999: 2}
	for key, want := range cases {
		r := types.Row{types.NewInt(key), types.NewString("x"), types.NewInt(0)}
		nodes, err := def.NodeFor(r, 3)
		if err != nil || len(nodes) != 1 || nodes[0] != want {
			t.Errorf("key %d → %v (err %v), want node %d", key, nodes, err, want)
		}
	}
}

func TestReplicatedPlacement(t *testing.T) {
	def := custDef()
	def.Part = Partitioning{Kind: PartReplicated}
	nodes, err := def.NodeFor(types.Row{types.NewInt(1), types.NewString("x"), types.NewInt(0)}, 3)
	if err != nil || len(nodes) != 3 {
		t.Fatalf("replicated NodeFor = %v, %v", nodes, err)
	}
}

func TestIndexes(t *testing.T) {
	c := New()
	c.CreateTable(custDef())
	idx := &IndexDef{Name: "idx_nation", Table: "customer", Cols: []string{"c_nationkey"}}
	if err := c.CreateIndex(idx); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateIndex(idx); err == nil {
		t.Error("duplicate index should fail")
	}
	if err := c.CreateIndex(&IndexDef{Name: "x", Table: "missing", Cols: []string{"a"}}); err == nil {
		t.Error("index on missing table should fail")
	}
	if err := c.CreateIndex(&IndexDef{Name: "y", Table: "customer", Cols: []string{"nope"}}); err == nil {
		t.Error("index on missing column should fail")
	}
	got := c.IndexesOn("CUSTOMER")
	if len(got) != 1 || got[0].Name != "idx_nation" {
		t.Errorf("IndexesOn = %v", got)
	}
	// Dropping the table drops its indexes.
	c.DropTable("customer")
	if len(c.IndexesOn("customer")) != 0 {
		t.Error("indexes survived table drop")
	}
}

func TestStatsAndCompute(t *testing.T) {
	c := New()
	c.CreateTable(custDef())
	// Default stats for unanalyzed tables.
	def := c.Stats("customer")
	if def.RowCount <= 0 {
		t.Error("default stats should be conservative, not zero")
	}
	if _, ok := c.AnalyzedStats("customer"); ok {
		t.Error("AnalyzedStats found statistics for a table never analyzed")
	}
	if n := c.DefaultStatsFallbacks(); n != 1 {
		t.Errorf("DefaultStatsFallbacks = %d, want 1: Stats counts, AnalyzedStats does not", n)
	}
	rows := []types.Row{
		{types.NewInt(1), types.NewString("alice"), types.NewInt(10)},
		{types.NewInt(2), types.NewString("bob"), types.NewInt(10)},
		{types.NewInt(3), types.NewString("carol"), types.NewInt(20)},
		{types.NewInt(4), types.Null, types.NewInt(20)},
	}
	b := NewStatsBuilder(custDef().Schema)
	for _, r := range rows {
		b.Add(r)
	}
	s := b.Finish()
	if s.RowCount != 4 {
		t.Errorf("rows = %d", s.RowCount)
	}
	ck := s.Cols["c_custkey"]
	if ck.NDV != 4 || ck.Min.Int() != 1 || ck.Max.Int() != 4 {
		t.Errorf("c_custkey stats = %+v", ck)
	}
	nk := s.Cols["c_nationkey"]
	if nk.NDV != 2 {
		t.Errorf("c_nationkey NDV = %d", nk.NDV)
	}
	cn := s.Cols["c_name"]
	if cn.NullCount != 1 || cn.NDV != 3 {
		t.Errorf("c_name stats = %+v", cn)
	}
	c.SetStats("customer", s)
	if got := c.Stats("Customer"); got.RowCount != 4 {
		t.Error("stored stats not returned")
	}
	if got, ok := c.AnalyzedStats("Customer"); !ok || got.RowCount != 4 {
		t.Error("AnalyzedStats did not return the stored stats")
	}
}

func TestSnapshotIndependent(t *testing.T) {
	c := New()
	c.CreateTable(custDef())
	c.SetStats("customer", &TableStats{RowCount: 7, Cols: map[string]*ColumnStats{}})
	snap := c.Snapshot()
	// Mutating the snapshot must not affect the original.
	snap.DropTable("customer")
	if _, err := c.Table("customer"); err != nil {
		t.Error("snapshot mutation leaked into original")
	}
	if snap.Stats("customer").RowCount == 7 {
		// Dropped table falls back to defaults in the snapshot.
		t.Error("snapshot stats should be dropped with the table")
	}
}
