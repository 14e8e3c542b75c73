// Package catalog holds HRDBMS's metadata: table definitions, partitioning
// strategies, index definitions, and table/column statistics used by the
// cost-based optimizer. In a running cluster the catalog lives on every
// coordinator and is kept in sync via 2PC (Section VI); the struct is
// self-contained and snapshot-able to support that replication.
package catalog

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/types"
)

// PartitionKind selects how a table's rows map to worker nodes.
type PartitionKind uint8

// Partitioning strategies (Section III: hash, range, or duplicated).
const (
	PartHash PartitionKind = iota + 1
	PartRange
	PartReplicated
)

// String names the strategy.
func (k PartitionKind) String() string {
	switch k {
	case PartHash:
		return "HASH"
	case PartRange:
		return "RANGE"
	case PartReplicated:
		return "REPLICATED"
	default:
		return fmt.Sprintf("PartitionKind(%d)", uint8(k))
	}
}

// Partitioning describes a table's node-level distribution. Within each
// node, rows are further spread across the node's disks by hash.
type Partitioning struct {
	Kind   PartitionKind
	Cols   []string
	Bounds []types.Value // PartRange: ascending upper bounds; fragment i takes keys < Bounds[i]
}

// TableDef is one table's definition.
type TableDef struct {
	Name        string
	Schema      types.Schema
	Part        Partitioning
	Columnar    bool
	ClusterCols []string // loading sorts on these (Section III clustering)
	PageSize    int
}

// ColOffsets resolves the partitioning columns to schema offsets.
func (t *TableDef) ColOffsets(cols []string) ([]int, error) {
	out := make([]int, len(cols))
	for i, c := range cols {
		idx := t.Schema.Find(c)
		if idx < 0 {
			return nil, fmt.Errorf("catalog: table %s has no column %s", t.Name, c)
		}
		out[i] = idx
	}
	return out, nil
}

// NodeFor returns the worker node(s) a row belongs to, given numWorkers.
// Replicated tables return all nodes.
func (t *TableDef) NodeFor(r types.Row, numWorkers int) ([]int, error) {
	switch t.Part.Kind {
	case PartReplicated:
		all := make([]int, numWorkers)
		for i := range all {
			all[i] = i
		}
		return all, nil
	case PartHash:
		offs, err := t.ColOffsets(t.Part.Cols)
		if err != nil {
			return nil, err
		}
		h := types.HashRow(r, offs)
		return []int{int(h % uint64(numWorkers))}, nil
	case PartRange:
		offs, err := t.ColOffsets(t.Part.Cols[:1])
		if err != nil {
			return nil, err
		}
		v := r[offs[0]]
		for i, b := range t.Part.Bounds {
			if types.Compare(v, b) < 0 {
				return []int{i % numWorkers}, nil
			}
		}
		return []int{len(t.Part.Bounds) % numWorkers}, nil
	default:
		return nil, fmt.Errorf("catalog: table %s has no partitioning", t.Name)
	}
}

// IndexDef describes a secondary index (a B+-tree, the one index kind).
type IndexDef struct {
	Name  string
	Table string
	Cols  []string
}

// ColumnStats holds per-column statistics for cost estimation.
type ColumnStats struct {
	NDV       int64 // number of distinct values (exact iff NDVExact)
	Min, Max  types.Value
	NullCount int64
	// NDVExact is set when NDV was counted exactly (small column domain);
	// otherwise NDV is the Sketch's HyperLogLog estimate. The group-by
	// pushdown's uniqueness test only trusts exact counts.
	NDVExact bool
	// AvgWidth is the average encoded value width in bytes (string
	// lengths; 8 for fixed-width kinds), used for network costing.
	AvgWidth float64
	// Hist is an equi-depth histogram over non-null values (ascending
	// Upper bounds); empty when the column was never analyzed.
	Hist []HistBucket
}

// TableStats holds per-table statistics.
type TableStats struct {
	RowCount int64
	Pages    int64
	Cols     map[string]*ColumnStats
}

// Catalog is the metadata store.
type Catalog struct {
	mu      sync.RWMutex
	tables  map[string]*TableDef
	indexes map[string]*IndexDef
	stats   map[string]*TableStats
	// defaultStatsFallbacks counts Stats() calls that returned the
	// conservative default because the table was never analyzed; exported
	// as the opt.stats_default_fallback metric so missing statistics are
	// visible instead of quietly poisoning plans.
	defaultStatsFallbacks atomic.Int64
}

// New creates an empty catalog.
func New() *Catalog {
	return &Catalog{
		tables:  map[string]*TableDef{},
		indexes: map[string]*IndexDef{},
		stats:   map[string]*TableStats{},
	}
}

// CreateTable registers a table definition. Its table, column,
// partitioning and clustering names are lower-cased in place first: the
// catalog is where a name enters, and every later lookup is exact.
func (c *Catalog) CreateTable(def *TableDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	def.Name = strings.ToLower(def.Name)
	cols := make([]types.Column, def.Schema.Len())
	for i, col := range def.Schema.Cols {
		cols[i] = types.Column{Name: strings.ToLower(col.Name), Kind: col.Kind}
	}
	def.Schema = types.Schema{Cols: cols}
	def.Part.Cols = lowerAll(def.Part.Cols)
	def.ClusterCols = lowerAll(def.ClusterCols)
	key := def.Name
	if _, exists := c.tables[key]; exists {
		return fmt.Errorf("catalog: table %s already exists", def.Name)
	}
	if def.Schema.Len() == 0 {
		return fmt.Errorf("catalog: table %s has no columns", def.Name)
	}
	if def.Part.Kind == PartHash || def.Part.Kind == PartRange {
		if len(def.Part.Cols) == 0 {
			return fmt.Errorf("catalog: table %s: %s partitioning needs columns", def.Name, def.Part.Kind)
		}
		for _, col := range def.Part.Cols {
			if def.Schema.Find(col) < 0 {
				return fmt.Errorf("catalog: table %s: partition column %s not in schema", def.Name, col)
			}
		}
	}
	c.tables[key] = def
	return nil
}

// DropTable removes a table and its indexes and stats.
func (c *Catalog) DropTable(name string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	if _, exists := c.tables[key]; !exists {
		return fmt.Errorf("catalog: table %s does not exist", name)
	}
	delete(c.tables, key)
	delete(c.stats, key)
	for iname, idx := range c.indexes {
		if idx.Table == key {
			delete(c.indexes, iname)
		}
	}
	return nil
}

// Table looks up a table definition.
func (c *Catalog) Table(name string) (*TableDef, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("catalog: table %s does not exist", name)
	}
	return t, nil
}

// Tables returns all table names, sorted.
func (c *Catalog) Tables() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for _, t := range c.tables {
		out = append(out, t.Name)
	}
	sort.Strings(out)
	return out
}

// CreateIndex registers an index over an existing table, lower-casing its
// names in place as CreateTable does.
func (c *Catalog) CreateIndex(def *IndexDef) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	def.Name, def.Table, def.Cols = strings.ToLower(def.Name), strings.ToLower(def.Table), lowerAll(def.Cols)
	key := def.Name
	if _, exists := c.indexes[key]; exists {
		return fmt.Errorf("catalog: index %s already exists", def.Name)
	}
	tbl, ok := c.tables[def.Table]
	if !ok {
		return fmt.Errorf("catalog: index %s references missing table %s", def.Name, def.Table)
	}
	for _, col := range def.Cols {
		if tbl.Schema.Find(col) < 0 {
			return fmt.Errorf("catalog: index %s: column %s not in %s", def.Name, col, def.Table)
		}
	}
	c.indexes[key] = def
	return nil
}

// IndexesOn returns the indexes defined on a table.
func (c *Catalog) IndexesOn(table string) []*IndexDef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	table = strings.ToLower(table)
	var out []*IndexDef
	for _, idx := range c.indexes {
		if idx.Table == table {
			out = append(out, idx)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// SetStats installs statistics for a table.
func (c *Catalog) SetStats(table string, s *TableStats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats[strings.ToLower(table)] = s
}

// Stats returns a table's statistics, or a conservative default when the
// table has never been analyzed.
func (c *Catalog) Stats(table string) *TableStats {
	if s, ok := c.AnalyzedStats(table); ok {
		return s
	}
	c.defaultStatsFallbacks.Add(1)
	return &TableStats{RowCount: 1000, Pages: 10, Cols: map[string]*ColumnStats{}}
}

// AnalyzedStats returns a table's statistics, and false when the table has
// never been analyzed. Unlike Stats it serves no default and counts no
// fallback: it is for execution, which is not estimating.
func (c *Catalog) AnalyzedStats(table string) (*TableStats, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	s, ok := c.stats[strings.ToLower(table)]
	return s, ok
}

// lowerAll returns the names lower-cased, in a new slice (nil stays nil).
func lowerAll(names []string) []string {
	if names == nil {
		return nil
	}
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = strings.ToLower(n)
	}
	return out
}

// DefaultStatsFallbacks returns how many times Stats served the
// never-analyzed default instead of real statistics.
func (c *Catalog) DefaultStatsFallbacks() int64 {
	return c.defaultStatsFallbacks.Load()
}

// Snapshot copies the catalog for replication to another coordinator.
func (c *Catalog) Snapshot() *Catalog {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := New()
	for k, v := range c.tables {
		def := *v
		out.tables[k] = &def
	}
	for k, v := range c.indexes {
		def := *v
		out.indexes[k] = &def
	}
	for k, v := range c.stats {
		s := &TableStats{RowCount: v.RowCount, Pages: v.Pages, Cols: map[string]*ColumnStats{}}
		for ck, cv := range v.Cols {
			cs := *cv
			cs.Hist = append([]HistBucket(nil), cv.Hist...)
			s.Cols[ck] = &cs
		}
		out.stats[k] = s
	}
	return out
}
