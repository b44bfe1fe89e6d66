package relational

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Row is a single tuple; its length always equals the number of columns of
// its table, in declaration order. A nil element is SQL NULL.
type Row []Value

// Database is an instance of a Schema: the tuples of every table, stored
// column-wise (see colvec.go).
type Database struct {
	// Schema is the schema this instance conforms to (modulo any
	// violations reported by Validate).
	Schema *Schema

	// tables holds the storage of every table of the schema, created by
	// NewDatabase; only a mutation of a table added to the schema later
	// adds an entry, so readers never write the map.
	tables map[string]*tableData //efes:bounded one entry per table of the schema

	// rowViewBuilds counts row-view builds (Rows on a table whose view is
	// not built yet), so tests can assert a consumer never needs rows.
	rowViewBuilds atomic.Int64

	// hashes memoizes per-table content hashes (ContentHash). Holding
	// hashMu across the computation deduplicates concurrent hashers of
	// the same instance. Mutations invalidate via invalidateHash.
	hashMu sync.Mutex
	hashes map[string]string //efes:guardedby hashMu
}

// tableData is the storage of one table. The column vectors are the
// store of record; the row view is derived from them by the first Rows
// call and then kept in step by every mutation.
type tableData struct {
	n    int             // rows; kept apart from the vectors because a table may have no columns
	vecs []*ColumnVector // one per column, in declaration order

	// viewMu serializes the lazy build of the row view among concurrent
	// readers; mutations take it to keep a built view in step.
	viewMu sync.Mutex
	view   []Row //efes:guardedby viewMu — nil until built; one element per row
}

func newTableData(t *Table) *tableData {
	td := &tableData{vecs: make([]*ColumnVector, len(t.Columns))}
	for i, c := range t.Columns {
		td.vecs[i] = newColumnVector(c.Type)
	}
	return td
}

// NewDatabase creates an empty instance of the given schema.
func NewDatabase(s *Schema) *Database {
	db := &Database{
		Schema: s,
		tables: make(map[string]*tableData),
		hashes: make(map[string]string),
	}
	for _, t := range s.Tables() {
		db.tables[t.Name] = newTableData(t)
	}
	return db
}

// table returns the storage of a table of the schema. A table added to
// the schema after NewDatabase reads as empty until its first mutation
// (see mutable).
func (db *Database) table(t *Table) *tableData {
	if td, ok := db.tables[t.Name]; ok {
		return td
	}
	return newTableData(t)
}

// mutable returns the storage of a table of the schema for a mutation,
// creating it if the table was added to the schema after NewDatabase.
func (db *Database) mutable(t *Table) *tableData {
	td, ok := db.tables[t.Name]
	if !ok {
		td = newTableData(t)
		db.tables[t.Name] = td
	}
	return td
}

// ContentHash returns a hex-encoded SHA-256 over the table's full CSV
// serialization (header plus every row in order, WriteCSV's encoding).
// Two tables hash equal iff they have the same column names and the same
// tuples in the same order, whatever process or machine computed the
// hash — the content address that keys the durable profile and result
// caches (internal/persist). The hash is memoized per table and
// invalidated by Insert, Update, Delete, and ReadCSV.
func (db *Database) ContentHash(table string) (string, error) {
	db.hashMu.Lock()
	defer db.hashMu.Unlock()
	if h, ok := db.hashes[table]; ok {
		return h, nil
	}
	hasher := sha256.New()
	if err := db.WriteCSV(table, hasher); err != nil {
		return "", err
	}
	h := hex.EncodeToString(hasher.Sum(nil))
	db.hashes[table] = h
	return h, nil
}

// invalidateHash drops the memoized content hash of a mutated table.
func (db *Database) invalidateHash(table string) {
	db.hashMu.Lock()
	delete(db.hashes, table)
	db.hashMu.Unlock()
}

// Insert appends a tuple to the named table after type-checking every
// value against the column types. Values are coerced to their canonical
// representation (e.g. int -> int64).
func (db *Database) Insert(table string, values ...Value) error {
	t := db.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("relational: insert into unknown table %s", table)
	}
	if len(values) != len(t.Columns) {
		return fmt.Errorf("relational: insert into %s: got %d values, want %d", table, len(values), len(t.Columns))
	}
	row := make(Row, len(values))
	for i, v := range values {
		cv, err := Coerce(t.Columns[i].Type, v)
		if err != nil {
			return fmt.Errorf("relational: insert into %s.%s: %w", table, t.Columns[i].Name, err)
		}
		row[i] = cv
	}
	td := db.mutable(t)
	for i, vec := range td.vecs {
		vec.appendValue(row[i])
		vec.invalidate()
	}
	td.n++
	td.viewMu.Lock()
	if td.view != nil {
		td.view = append(td.view, row)
	}
	td.viewMu.Unlock()
	db.invalidateHash(table)
	return nil
}

// MustInsert is Insert but panics on error; for generators and tests.
func (db *Database) MustInsert(table string, values ...Value) {
	if err := db.Insert(table, values...); err != nil {
		panic(err)
	}
}

// InsertMap inserts a tuple given as a column-name-to-value map; missing
// columns become NULL, unknown columns are an error.
func (db *Database) InsertMap(table string, values map[string]Value) error {
	t := db.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("relational: insert into unknown table %s", table)
	}
	row := make([]Value, len(t.Columns))
	// Visit the columns in sorted order so that a tuple with several
	// unknown columns always reports the same one.
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		idx := t.ColumnIndex(name)
		if idx < 0 {
			return fmt.Errorf("relational: insert into %s: unknown column %s", table, name)
		}
		row[idx] = values[name]
	}
	return db.Insert(table, row...)
}

// Rows returns the tuples of the named table: a view derived from the
// column vectors on the first call and kept in step by later mutations.
// Concurrent first calls build it once. The returned slice is owned by
// the database and must not be mutated. Consumers that can scan the
// vectors (Vector, Vectors) should, and leave the view unbuilt.
func (db *Database) Rows(table string) []Row {
	t := db.Schema.Table(table)
	if t == nil {
		return nil
	}
	td := db.table(t)
	td.viewMu.Lock()
	defer td.viewMu.Unlock()
	if td.view == nil && td.n > 0 {
		td.view = td.rows(0, td.n)
		db.rowViewBuilds.Add(1)
	}
	return td.view
}

// rows builds the row view of rows [from, to) from the vectors. The cells
// of all rows share one backing array.
func (td *tableData) rows(from, to int) []Row {
	n, width := to-from, len(td.vecs)
	if n == 0 {
		return nil
	}
	cells := make([]Value, n*width)
	for c, vec := range td.vecs {
		vec.fill(cells[c:], width, from, n)
	}
	out := make([]Row, n)
	for i := range out {
		out[i] = cells[i*width : (i+1)*width : (i+1)*width]
	}
	return out
}

// NumRows returns the number of tuples in the named table.
func (db *Database) NumRows(table string) int {
	if td, ok := db.tables[table]; ok {
		return td.n
	}
	return 0
}

// TotalRows returns the number of tuples over all tables.
func (db *Database) TotalRows() int {
	n := 0
	for _, td := range db.tables {
		n += td.n
	}
	return n
}

// Column returns all values of one column, in row order (including NULLs
// and duplicates).
func (db *Database) Column(table, column string) ([]Value, error) {
	t := db.Schema.Table(table)
	if t == nil {
		return nil, fmt.Errorf("relational: unknown table %s", table)
	}
	idx := t.ColumnIndex(column)
	if idx < 0 {
		return nil, fmt.Errorf("relational: unknown column %s.%s", table, column)
	}
	td := db.table(t)
	out := make([]Value, td.n)
	td.vecs[idx].fill(out, 1, 0, td.n)
	return out, nil
}

// MustColumn is Column but panics on error.
func (db *Database) MustColumn(table, column string) []Value {
	vs, err := db.Column(table, column)
	if err != nil {
		panic(err)
	}
	return vs
}

// DistinctValues returns the distinct non-NULL values of a column, in
// deterministic (sorted) order, and the number of NULLs.
func (db *Database) DistinctValues(table, column string) (distinct []Value, nulls int, err error) {
	vs, err := db.Column(table, column)
	if err != nil {
		return nil, 0, err
	}
	seen := make(map[string]Value)
	for _, v := range vs {
		if v == nil {
			nulls++
			continue
		}
		seen[FormatValue(v)] = v
	}
	keys := make([]string, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	distinct = make([]Value, 0, len(keys))
	for _, k := range keys {
		distinct = append(distinct, seen[k])
	}
	return distinct, nulls, nil
}

// Validate checks every declared constraint against the instance and
// returns all violations.
func (db *Database) Validate() []Violation {
	var out []Violation
	for _, c := range db.Schema.Constraints {
		out = append(out, c.Violations(db)...)
	}
	return out
}

// Clone deep-copies the instance (sharing the immutable schema): it
// copies the column vectors; the copy builds its own row view on demand.
func (db *Database) Clone() *Database {
	out := &Database{
		Schema: db.Schema,
		tables: make(map[string]*tableData, len(db.tables)),
		hashes: make(map[string]string),
	}
	for name, td := range db.tables {
		cp := &tableData{n: td.n, vecs: make([]*ColumnVector, len(td.vecs))}
		for i, vec := range td.vecs {
			cp.vecs[i] = vec.clone()
		}
		out.tables[name] = cp
	}
	return out
}

// Delete removes the rows at the given indexes from the named table.
// Indexes outside the table are ignored.
func (db *Database) Delete(table string, rowIndexes ...int) {
	td, ok := db.tables[table]
	if !ok || len(rowIndexes) == 0 {
		return
	}
	drop := make(map[int]struct{}, len(rowIndexes))
	for _, i := range rowIndexes {
		if i >= 0 && i < td.n {
			drop[i] = struct{}{}
		}
	}
	if len(drop) == 0 {
		return
	}
	for _, vec := range td.vecs {
		vec.deleteRows(drop)
		vec.invalidate()
	}
	td.n -= len(drop)
	td.viewMu.Lock()
	if td.view != nil {
		dst := td.view[:0]
		for i, r := range td.view {
			if _, gone := drop[i]; !gone {
				dst = append(dst, r)
			}
		}
		td.view = dst
	}
	td.viewMu.Unlock()
	db.invalidateHash(table)
}

// Update sets column of the row at rowIndex to v (after coercion).
func (db *Database) Update(table string, rowIndex int, column string, v Value) error {
	t := db.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("relational: update unknown table %s", table)
	}
	idx := t.ColumnIndex(column)
	if idx < 0 {
		return fmt.Errorf("relational: update unknown column %s.%s", table, column)
	}
	td := db.table(t)
	if rowIndex < 0 || rowIndex >= td.n {
		return fmt.Errorf("relational: update %s: row %d out of range", table, rowIndex)
	}
	cv, err := Coerce(t.Columns[idx].Type, v)
	if err != nil {
		return err
	}
	td.vecs[idx].setValue(rowIndex, cv)
	td.vecs[idx].invalidate()
	td.viewMu.Lock()
	if td.view != nil {
		td.view[rowIndex][idx] = cv
	}
	td.viewMu.Unlock()
	db.invalidateHash(table)
	return nil
}

// JoinPair is one matched pair of row indexes produced by EquiJoin.
type JoinPair struct {
	Left, Right int
}

// EquiJoin matches rows of two tables on equality of the given columns and
// returns the matching index pairs. NULLs never join.
func (db *Database) EquiJoin(leftTable, leftColumn, rightTable, rightColumn string) ([]JoinPair, error) {
	lt := db.Schema.Table(leftTable)
	rt := db.Schema.Table(rightTable)
	if lt == nil || rt == nil {
		return nil, fmt.Errorf("relational: join of unknown tables %s, %s", leftTable, rightTable)
	}
	li := lt.ColumnIndex(leftColumn)
	ri := rt.ColumnIndex(rightColumn)
	if li < 0 || ri < 0 {
		return nil, fmt.Errorf("relational: join on unknown columns %s.%s, %s.%s", leftTable, leftColumn, rightTable, rightColumn)
	}
	index := make(map[string][]int)
	for j, row := range db.Rows(rightTable) {
		v := row[ri]
		if v == nil {
			continue
		}
		k := FormatValue(v)
		index[k] = append(index[k], j)
	}
	var out []JoinPair
	for i, row := range db.Rows(leftTable) {
		v := row[li]
		if v == nil {
			continue
		}
		for _, j := range index[FormatValue(v)] {
			out = append(out, JoinPair{Left: i, Right: j})
		}
	}
	return out, nil
}
