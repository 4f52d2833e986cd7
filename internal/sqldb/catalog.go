package sqldb

import (
	"fmt"
	"maps"
	"sort"
	"strings"
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

// Table is a heap table: a schema and its secondary indexes over a
// multi-versioned row store (see mvcc.go). Readers resolve a view header and
// filter by snapshot visibility without locks; writers hold the store's
// write latch (plus the DB's shared lock) or the DB's exclusive lock.
//
// A Table in a catalogue value is never changed: index DDL makes a new Table
// over the same store (withIndexes), which the committed catalogue sees only
// when the DDL's transaction commits.
type Table struct {
	Name    string
	Columns []Column
	indexes []*index
	*tableStore
}

// tableStore is a table's row storage, shared by every Table value of the
// table. Write latches are taken on it (see lockMgr).
type tableStore struct {
	// view is the current published generation of the version arrays.
	view atomic.Pointer[tableView]

	// mirror is the typed columnar shadow of view the vectorized executor
	// reads (colmirror.go).
	mirror colMirror

	// stats is the latest ANALYZE snapshot (nil before the first one); it is
	// replaced wholesale, never mutated. statMutations counts row churn since
	// that snapshot, driving the automatic refresh (see stats.go). Both are
	// atomic so ANALYZE never needs a table latch (a latch-waiting ANALYZE
	// inside a commit path could deadlock against the latch holder).
	stats         atomic.Pointer[tableStats]
	statMutations atomic.Int64
}

// newTable makes an empty table.
func newTable(name string, cols []Column) *Table {
	t := &Table{Name: name, Columns: cols, tableStore: &tableStore{}}
	t.view.Store(&tableView{})
	return t
}

// withIndexes returns a Table over t's store with the index list ixs.
func (t *Table) withIndexes(ixs []*index) *Table {
	nt := *t
	nt.indexes = ixs
	return &nt
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

// The catalogue. Its committed state is one immutable catalogValue behind
// an atomic pointer (DB.tables, stored only under DB.commitMu), as a
// table's rows are one tableView: a statement resolves names with a single
// load and no lock. DDL never changes it in place. A transaction records its
// DDL as catEdits; its own statements resolve names in the committed value
// with those edits laid over it (DB.catalogFor), and commitTxn publishes the
// value the edits make of the catalogue current at commit, under commitMu,
// so publish order is WAL order. Until then no other statement sees the
// DDL, and a rollback forgets the edits.

// catalogValue is one catalogue: tables by lowercase name, and the
// database-wide index namespace (index names are unique across tables, as
// in PostgreSQL).
type catalogValue struct {
	tables  map[string]*Table
	names   []string          // the table names, sorted
	indexes map[string]string // index name -> owning table name

	// epoch identifies a published value for the plan cache: cached
	// physical plans, which pin table and index pointers and column
	// offsets, record the epoch they were built at and are replanned when
	// it moves. Publishing DDL moves it, and so do ANALYZE, Vacuum and
	// planner-option changes (DB.bumpEpoch). It is 0 in a transaction's
	// view that includes its uncommitted edits, whose plans are never
	// cached.
	epoch uint64
}

// catEdit is one catalogue change of an open transaction: the table a name
// now resolves to (nil once dropped) and the one it replaced (nil for a new
// name), which must still be the one under the name when the edit is
// applied.
type catEdit struct {
	name    string
	base, t *Table
}

// newCatalogValue indexes tables into a catalogue value. A duplicate index
// name can only come from two transactions' CREATE INDEX committing one
// after the other.
func newCatalogValue(tables map[string]*Table) (*catalogValue, error) {
	v := &catalogValue{tables: tables, names: make([]string, 0, len(tables)), indexes: make(map[string]string)}
	for name := range tables {
		v.names = append(v.names, name)
	}
	sort.Strings(v.names)
	for _, name := range v.names {
		for _, ix := range tables[name].indexes {
			if _, dup := v.indexes[ix.name]; dup {
				return nil, fmt.Errorf("%w: index %q was created by a concurrent transaction", ErrWriteConflict, ix.name)
			}
			v.indexes[ix.name] = name
		}
	}
	return v, nil
}

// with returns the catalogue edits make of c. An edit whose base is no
// longer under its name lost a race against a transaction that committed
// DDL of the same name first.
func (c *catalogValue) with(edits []catEdit) (*catalogValue, error) {
	tables := maps.Clone(c.tables)
	for _, e := range edits {
		if tables[e.name] != e.base {
			return nil, fmt.Errorf("%w: table %q was created or dropped by a concurrent transaction", ErrWriteConflict, e.name)
		}
		if e.t == nil {
			delete(tables, e.name)
		} else {
			tables[e.name] = e.t
		}
	}
	return newCatalogValue(tables)
}

func (c *catalogValue) get(name string) (*Table, bool) {
	t, ok := c.tables[strings.ToLower(name)]
	return t, ok
}

// createIndex validates and builds a secondary index, returning the edit
// that attaches it; none for an IF NOT EXISTS no-op.
func (c *catalogValue) createIndex(info IndexInfo, ifNotExists bool) ([]catEdit, error) {
	name := strings.ToLower(info.Name)
	if _, exists := c.indexes[name]; exists {
		if ifNotExists {
			return nil, nil
		}
		return nil, fmt.Errorf("sql: index %q already exists", info.Name)
	}
	t, ok := c.get(info.Table)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, info.Table)
	}
	col := t.columnIndex(info.Column)
	if col < 0 {
		return nil, fmt.Errorf("sql: table %q has no column %q", info.Table, info.Column)
	}
	if t.Columns[col].Type == "variant" {
		return nil, fmt.Errorf("sql: cannot index variant column %q", info.Column)
	}
	if info.Kind != IndexHash && info.Kind != IndexOrdered {
		return nil, fmt.Errorf("sql: unsupported index access method %q (want hash or btree)", info.Kind)
	}
	ix := &index{
		name:   name,
		table:  t.Name,
		column: strings.ToLower(t.Columns[col].Name),
		kind:   info.Kind,
		col:    col,
	}
	if err := ix.build(t.loadView().rows); err != nil {
		return nil, err
	}
	ixs := append(t.indexes[:len(t.indexes):len(t.indexes)], ix)
	return []catEdit{{name: t.Name, base: t, t: t.withIndexes(ixs)}}, nil
}

// dropIndex returns the edit that detaches an index from its table (the
// edit's base); none for an IF EXISTS no-op.
func (c *catalogValue) dropIndex(name string, ifExists bool) ([]catEdit, error) {
	key := strings.ToLower(name)
	tableName, exists := c.indexes[key]
	if !exists {
		if ifExists {
			return nil, nil
		}
		return nil, fmt.Errorf("%w: %q", ErrNoSuchIndex, name)
	}
	t := c.tables[tableName]
	ixs := make([]*index, 0, len(t.indexes))
	for _, ix := range t.indexes {
		if ix.name != key {
			ixs = append(ixs, ix)
		}
	}
	return []catEdit{{name: t.Name, base: t, t: t.withIndexes(ixs)}}, nil
}

// indexInfos lists every index, ordered by (table, name) for deterministic
// dumps and introspection.
func (c *catalogValue) indexInfos() []IndexInfo {
	var out []IndexInfo
	for _, name := range c.names {
		for _, ix := range c.tables[name].indexes {
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
