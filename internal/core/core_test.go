package core

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/external"
	"repro/internal/types"
)

func openDB(t *testing.T) *DB {
	t.Helper()
	db, err := Open(Config{Workers: 3, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(Config{}); err == nil {
		t.Error("missing Dir should fail")
	}
}

func TestEndToEndSQL(t *testing.T) {
	db := openDB(t)
	if _, err := db.Exec(`CREATE TABLE kv (k INT, v VARCHAR(10)) PARTITION BY HASH(k)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO kv VALUES (1,'a'), (2,'b'), (3,'c')`); err != nil {
		t.Fatal(err)
	}
	rows, schema, err := db.Query(`SELECT k, v FROM kv ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 || rows[0][1].Str() != "a" {
		t.Fatalf("rows = %v", rows)
	}
	if schema.Cols[0].Name != "k" {
		t.Errorf("schema = %v", schema)
	}
	if _, err := db.Exec(`SELEC nope`); err == nil {
		t.Error("bad SQL should fail parse")
	}
}

func TestExplainAndCatalog(t *testing.T) {
	db := openDB(t)
	db.Exec(`CREATE TABLE t (a INT, b FLOAT) PARTITION BY HASH(a)`)
	planText, err := db.Explain(`SELECT sum(b) FROM t WHERE a > 5`)
	if err != nil {
		t.Fatal(err)
	}
	if planText == "" {
		t.Error("empty plan")
	}
	if _, err := db.Catalog().Table("t"); err != nil {
		t.Errorf("catalog lookup: %v", err)
	}
}

func TestLoadBulk(t *testing.T) {
	db := openDB(t)
	db.Exec(`CREATE TABLE bulk (id INT, x FLOAT) PARTITION BY HASH(id)`)
	var rows []types.Row
	for i := int64(0); i < 500; i++ {
		rows = append(rows, types.Row{types.NewInt(i), types.NewFloat(float64(i) / 2)})
	}
	n, err := db.Load("bulk", rows)
	if err != nil || n != 500 {
		t.Fatalf("load: %d %v", n, err)
	}
	out, _, err := db.Query(`SELECT count(*), sum(x) FROM bulk`)
	if err != nil || out[0][0].Int() != 500 {
		t.Fatalf("count after load = %v err=%v", out, err)
	}
}

func TestExternalTableViaCore(t *testing.T) {
	db := openDB(t)
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "part-0.csv"), []byte("1|x\n2|y\n3|z\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	schema := types.NewSchema(
		types.Column{Name: "id", Kind: types.KindInt},
		types.Column{Name: "tag", Kind: types.KindString},
	)
	tbl, err := external.NewCSVTable("ext", schema, dir, "part-*.csv", '|')
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterExternal(tbl); err != nil {
		t.Fatal(err)
	}
	rows, err := db.QueryExternal("ext", "id >= 2")
	if err != nil || len(rows) != 2 {
		t.Fatalf("external query: %v %v", rows, err)
	}
	if _, err := db.QueryExternal("missing", ""); err == nil {
		t.Error("unknown external table should fail")
	}
	if _, err := db.QueryExternal("ext", "syntax >>> error"); err == nil {
		t.Error("bad WHERE should fail")
	}
}
