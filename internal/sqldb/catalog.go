package sqldb

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/variant"
)

// Column describes one result or table column.
type Column struct {
	Name string
	// Type is the canonical declared type ("integer", "float", "text",
	// "boolean", "timestamp", "variant"). Result columns computed from
	// expressions use "variant".
	Type string
}

// Row is one tuple of values.
type Row []variant.Value

// ResultSet is a fully materialized query result.
type ResultSet struct {
	Columns []Column
	Rows    []Row
}

// ColumnIndex finds a column by case-insensitive name; -1 when absent.
func (rs *ResultSet) ColumnIndex(name string) int {
	for i, c := range rs.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// Scan extracts the named column of row i as a variant value.
func (rs *ResultSet) Scan(i int, column string) (variant.Value, error) {
	idx := rs.ColumnIndex(column)
	if idx < 0 {
		return variant.Value{}, fmt.Errorf("sql: result has no column %q", column)
	}
	if i < 0 || i >= len(rs.Rows) {
		return variant.Value{}, fmt.Errorf("sql: row index %d out of range", i)
	}
	return rs.Rows[i][idx], nil
}

// Table is a heap table: a schema plus a versioned row store and its
// secondary indexes. Row storage is multi-versioned (see mvcc.go): readers
// resolve a view header and filter by snapshot visibility without locks;
// writers hold the table's write latch (plus the DB's shared lock) or the
// DB's exclusive lock. The indexes slice itself is only mutated by DDL
// under the exclusive lock.
type Table struct {
	Name    string
	Columns []Column

	// view is the current published generation of the version arrays.
	view atomic.Pointer[tableView]

	// mirror is the typed columnar shadow of view the vectorized executor
	// reads (colmirror.go).
	mirror colMirror

	indexes []*index

	// stats is the latest ANALYZE snapshot (nil before the first one); it is
	// replaced wholesale, never mutated. statMutations counts row churn since
	// that snapshot, driving the automatic refresh (see stats.go). Both are
	// atomic so ANALYZE never needs a table latch (a latch-waiting ANALYZE
	// inside a commit path could deadlock against the latch holder).
	stats         atomic.Pointer[tableStats]
	statMutations atomic.Int64
}

func (t *Table) columnIndex(name string) int {
	for i, c := range t.Columns {
		if strings.EqualFold(c.Name, name) {
			return i
		}
	}
	return -1
}

// coerceToColumn converts v to the column's declared type (implicit cast on
// insert/update, like PostgreSQL assignment casts).
func coerceToColumn(v variant.Value, colType string) (variant.Value, error) {
	if v.IsNull() || colType == "variant" {
		return v, nil
	}
	switch colType {
	case "integer":
		i, err := v.AsInt()
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewInt(i), nil
	case "float":
		f, err := v.AsFloat()
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewFloat(f), nil
	case "text":
		return variant.NewText(v.AsText()), nil
	case "boolean":
		b, err := v.AsBool()
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewBool(b), nil
	case "timestamp":
		t, err := v.AsTime()
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewTime(t), nil
	default:
		return variant.Value{}, fmt.Errorf("sql: unknown column type %q", colType)
	}
}

// catalog maps lowercase table names to tables and tracks the database-wide
// index namespace (index names are unique across tables, as in PostgreSQL).
type catalog struct {
	mu      sync.RWMutex
	tables  map[string]*Table
	indexes map[string]string // index name -> owning table name

	// epoch counts catalogue-shape changes: CREATE/DROP TABLE/INDEX (and
	// their rollback undos), ANALYZE, and planner-option changes. Cached
	// physical plans record the epoch they were built at and are replanned
	// when it moves — the invalidation protocol that keeps compiled plans
	// (which pin table and index pointers and column offsets) from outliving
	// the schema they were compiled against.
	epoch atomic.Uint64
}

// bumpEpoch invalidates every cached physical plan.
func (c *catalog) bumpEpoch() { c.epoch.Add(1) }

func newCatalog() *catalog {
	return &catalog{
		tables:  make(map[string]*Table),
		indexes: make(map[string]string),
	}
}

func (c *catalog) get(name string) (*Table, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// create registers a table; created reports whether it was actually added
// (false for an IF NOT EXISTS no-op), so callers journal the right undo.
func (c *catalog) create(t *Table, ifNotExists bool) (created bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(t.Name)
	if _, exists := c.tables[key]; exists {
		if ifNotExists {
			return false, nil
		}
		return false, fmt.Errorf("sql: table %q already exists", t.Name)
	}
	c.tables[key] = t
	c.bumpEpoch()
	return true, nil
}

// drop removes a table, returning it (with rows and indexes intact) so a
// transaction rollback can restore it; nil for an IF EXISTS no-op.
func (c *catalog) drop(name string, ifExists bool) (*Table, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	t, exists := c.tables[key]
	if !exists {
		if ifExists {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	// Dropping a table drops its indexes, freeing their names.
	for _, ix := range t.indexes {
		delete(c.indexes, ix.name)
	}
	delete(c.tables, key)
	c.bumpEpoch()
	return t, nil
}

// restoreTable undoes a drop: the table re-enters the catalogue and its
// index names are re-registered.
func (c *catalog) restoreTable(t *Table) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tables[t.Name] = t
	for _, ix := range t.indexes {
		c.indexes[ix.name] = t.Name
	}
	c.bumpEpoch()
}

// createIndex validates, builds, and attaches a secondary index. created
// reports whether the index was actually added (false for an IF NOT EXISTS
// no-op).
func (c *catalog) createIndex(info IndexInfo, ifNotExists bool) (created bool, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	name := strings.ToLower(info.Name)
	if _, exists := c.indexes[name]; exists {
		if ifNotExists {
			return false, nil
		}
		return false, fmt.Errorf("sql: index %q already exists", info.Name)
	}
	t, ok := c.tables[strings.ToLower(info.Table)]
	if !ok {
		return false, fmt.Errorf("%w: %q", ErrNoSuchTable, info.Table)
	}
	col := t.columnIndex(info.Column)
	if col < 0 {
		return false, fmt.Errorf("sql: table %q has no column %q", info.Table, info.Column)
	}
	if t.Columns[col].Type == "variant" {
		return false, fmt.Errorf("sql: cannot index variant column %q", info.Column)
	}
	if info.Kind != IndexHash && info.Kind != IndexOrdered {
		return false, fmt.Errorf("sql: unsupported index access method %q (want hash or btree)", info.Kind)
	}
	ix := &index{
		name:   name,
		table:  t.Name,
		column: strings.ToLower(t.Columns[col].Name),
		kind:   info.Kind,
		col:    col,
	}
	if err := ix.build(t.loadView().rows); err != nil {
		return false, err
	}
	t.indexes = append(t.indexes, ix)
	c.indexes[name] = t.Name
	c.bumpEpoch()
	return true, nil
}

// dropIndex removes an index by name, returning its table and the detached
// index so a rollback can re-attach them; both nil for an IF EXISTS no-op.
func (c *catalog) dropIndex(name string, ifExists bool) (*Table, *index, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	key := strings.ToLower(name)
	tableName, exists := c.indexes[key]
	if !exists {
		if ifExists {
			return nil, nil, nil
		}
		return nil, nil, fmt.Errorf("%w: %q", ErrNoSuchIndex, name)
	}
	var table *Table
	var removed *index
	if t, ok := c.tables[tableName]; ok {
		for i, ix := range t.indexes {
			if ix.name == key {
				table, removed = t, ix
				t.indexes = append(t.indexes[:i], t.indexes[i+1:]...)
				break
			}
		}
	}
	delete(c.indexes, key)
	c.bumpEpoch()
	return table, removed, nil
}

// attachIndex undoes a dropIndex: the detached index rejoins its table and
// the name registry. The caller rebuilds it against the table's rows.
func (c *catalog) attachIndex(t *Table, ix *index) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t.indexes = append(t.indexes, ix)
	c.indexes[ix.name] = t.Name
	c.bumpEpoch()
}

// indexInfos lists every index, ordered by (table, name) for deterministic
// dumps and introspection.
func (c *catalog) indexInfos() []IndexInfo {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []IndexInfo
	for _, t := range c.tables {
		for _, ix := range t.indexes {
			out = append(out, ix.info())
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Name < out[j].Name
	})
	return out
}

func (c *catalog) names() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, 0, len(c.tables))
	for name := range c.tables {
		out = append(out, name)
	}
	return out
}
