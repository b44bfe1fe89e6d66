package relational

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// This file implements the columnar substrate of the store. Each table
// keeps one ColumnVector per column: a typed vector with a null bitmap,
// and — for string columns — dictionary encoding (interned codes into an
// append-ordered dictionary with per-code occurrence counts).
//
// The vectors are the store of record. ReadCSV parses straight into them,
// Insert, Update and Delete mutate them, and WriteCSV and ContentHash
// encode from them. The row API (Rows) is a compatibility view derived
// from the vectors on first use and kept in step by later mutations; the
// profiling kernels, the schema matcher, the discovery merge-joins and
// the CSG instance builder scan the vectors and never build it. Readers
// take no lock: concurrent readers are safe, but mutation must not race
// with reads.

// ChunkSize is the number of rows (or, for string columns, dictionary
// entries) per profiling chunk: the unit of work the sharded profiling
// kernels fan out over and the granularity of the per-chunk mutation
// stamps below. A power of two keeps the row→chunk mapping a shift.
const ChunkSize = 1 << 16

// Bitmap is a fixed-purpose bitset over row indexes.
type Bitmap struct {
	words []uint64 //efes:bounded sized to the owning table's row count
}

// Get reports whether bit i is set. Indexes beyond the bitmap are unset.
func (b *Bitmap) Get(i int) bool {
	w := i >> 6
	return w < len(b.words) && b.words[w]&(1<<(uint(i)&63)) != 0
}

// set sets bit i, growing the bitmap as needed.
//
//efes:hot
func (b *Bitmap) set(i int) {
	w := i >> 6
	for w >= len(b.words) {
		//lint:ignore hotalloc grows the word array to the high-water mark once; amortized doubling, not per-set
		b.words = append(b.words, 0)
	}
	b.words[w] |= 1 << (uint(i) & 63)
}

// clear unsets bit i.
func (b *Bitmap) clear(i int) {
	w := i >> 6
	if w < len(b.words) {
		b.words[w] &^= 1 << (uint(i) & 63)
	}
}

// ColumnVector is the columnar representation of one column: a typed
// vector with a null bitmap. String columns are dictionary-encoded: each
// row stores a code into an append-ordered dictionary of interned strings,
// with per-code occurrence counts maintained incrementally.
//
// The slices returned by the accessors are owned by the vector: they must
// not be mutated and are valid until the next mutation of the database.
type ColumnVector struct {
	typ    Type
	length int

	nulls     Bitmap
	nullCount int

	// String columns (dictionary encoding). lookup maps a string to its
	// code for interning; only mutation needs it, so a committed ingest
	// and Clone drop it and intern rebuilds it on demand.
	codes  []int32
	dict   []string         //efes:bounded one entry per distinct string value of the column
	counts []int            //efes:bounded one entry per distinct string value of the column
	lookup map[string]int32 //efes:bounded one entry per distinct string value of the column

	// Other types: one slot per row, zero-valued where NULL.
	ints   []int64
	floats []float64
	bools  []bool
	times  []time.Time

	// chunkStamps holds one logical mutation stamp per ChunkSize rows,
	// maintained incrementally: appending stamps the last chunk, an
	// in-place update stamps the row's chunk, and a compacting delete
	// stamps every chunk from the first removed row on. Stamps are drawn
	// from the monotonically increasing stampEpoch (never reused, even
	// when a delete truncates the stamp array and appends regrow it), so
	// a consumer that cached a per-chunk summary can compare stamps to
	// reprofile only the chunks that actually changed.
	chunkStamps []uint64 //efes:bounded one stamp per ChunkSize rows of the owning table
	stampEpoch  uint64

	// memoized SortedDistinct result; nil after any mutation. The mutex
	// only guards memo (re)computation: readers may share a vector, and
	// the first one builds the memo for all.
	memoMu sync.Mutex
	memo   []string //efes:guardedby memoMu
}

func newColumnVector(t Type) *ColumnVector {
	return &ColumnVector{typ: t}
}

// Type returns the column's declared type.
func (v *ColumnVector) Type() Type { return v.typ }

// Len returns the number of rows (including NULLs).
func (v *ColumnVector) Len() int { return v.length }

// NullCount returns the number of NULL rows.
func (v *ColumnVector) NullCount() int { return v.nullCount }

// Null reports whether row i is NULL.
func (v *ColumnVector) Null(i int) bool { return v.nulls.Get(i) }

// Nulls returns the null bitmap (read-only view).
func (v *ColumnVector) Nulls() *Bitmap { return &v.nulls }

// Codes returns the per-row dictionary codes of a string column (nil for
// other types). The code of a NULL row is meaningless; consult Null.
func (v *ColumnVector) Codes() []int32 { return v.codes }

// Dict returns the dictionary of a string column in append (first
// occurrence) order. After deletes or updates, entries whose count dropped
// to zero linger; consumers must skip codes with Counts()[c] == 0.
func (v *ColumnVector) Dict() []string { return v.dict }

// Counts returns the per-code occurrence counts, parallel to Dict.
func (v *ColumnVector) Counts() []int { return v.counts }

// Ints returns the typed vector of an integer column (nil otherwise).
func (v *ColumnVector) Ints() []int64 { return v.ints }

// Floats returns the typed vector of a float column (nil otherwise).
func (v *ColumnVector) Floats() []float64 { return v.floats }

// Bools returns the typed vector of a boolean column (nil otherwise).
func (v *ColumnVector) Bools() []bool { return v.bools }

// Times returns the typed vector of a timestamp column (nil otherwise).
func (v *ColumnVector) Times() []time.Time { return v.times }

// Chunks returns the number of ChunkSize row chunks covering the vector
// (zero for an empty column).
func (v *ColumnVector) Chunks() int {
	return (v.length + ChunkSize - 1) / ChunkSize
}

// ChunkBounds returns the half-open row range [lo, hi) of chunk k.
func (v *ColumnVector) ChunkBounds(k int) (lo, hi int) {
	lo = k * ChunkSize
	hi = lo + ChunkSize
	if hi > v.length {
		hi = v.length
	}
	return lo, hi
}

// ChunkStamp returns the logical mutation stamp of chunk k: it changes
// whenever any row of the chunk is inserted, updated, or shifted by a
// compacting delete, so equal stamps mean an unchanged chunk.
func (v *ColumnVector) ChunkStamp(k int) uint64 {
	if k < len(v.chunkStamps) {
		return v.chunkStamps[k]
	}
	return 0
}

// stampAppend accounts a freshly appended row i to the chunk stamps.
//
//efes:hot
func (v *ColumnVector) stampAppend(i int) {
	v.stampEpoch++
	k := i / ChunkSize
	for k >= len(v.chunkStamps) {
		//lint:ignore hotalloc grows one stamp per ChunkSize appended rows; amortized doubling, not per-append
		v.chunkStamps = append(v.chunkStamps, 0)
	}
	v.chunkStamps[k] = v.stampEpoch
}

// stampTouch stamps the chunk containing row i.
func (v *ColumnVector) stampTouch(i int) {
	v.stampEpoch++
	if k := i / ChunkSize; k < len(v.chunkStamps) {
		v.chunkStamps[k] = v.stampEpoch
	}
}

// stampFrom stamps every chunk from the one containing row i on and
// drops stamps beyond the new length (a compacting delete shifts every
// later row, so every later chunk changed).
func (v *ColumnVector) stampFrom(i int) {
	v.stampEpoch++
	from := i / ChunkSize
	n := v.Chunks()
	if n > len(v.chunkStamps) {
		n = len(v.chunkStamps)
	}
	for k := from; k < n; k++ {
		v.chunkStamps[k] = v.stampEpoch
	}
	if n < len(v.chunkStamps) {
		v.chunkStamps = v.chunkStamps[:n]
	}
}

// Value materializes the cell of row i as a row-API Value.
func (v *ColumnVector) Value(i int) Value {
	if v.nulls.Get(i) {
		return nil
	}
	switch v.typ {
	case String:
		return v.dict[v.codes[i]]
	case Integer:
		return v.ints[i]
	case Float:
		return v.floats[i]
	case Bool:
		return v.bools[i]
	case Time:
		return v.times[i]
	}
	return nil
}

// canonNaN is the single bit pattern all NaNs are mapped to when floats
// are keyed by bits: FormatValue renders every NaN as "NaN", so distinct
// NaN payloads must collapse exactly as they do under string keys.
var canonNaN = math.Float64bits(math.NaN())

// FloatKey returns the distinct-value key of a float: its bit pattern with
// NaNs canonicalized. Unlike keying a map by float64 (where 0 == -0 and
// NaN never matches itself), this reproduces FormatValue key semantics
// bit-for-bit: -0 and 0 stay distinct ("-0" vs "0"), NaNs collapse. It is
// shared by the profiling kernels and the interned CSG instance builder.
func FloatKey(x float64) uint64 {
	if math.IsNaN(x) {
		return canonNaN
	}
	return math.Float64bits(x)
}

// SortedDistinct returns the distinct non-NULL values of the column,
// rendered with FormatValue and sorted lexicographically. The result is
// memoized until the next mutation; it is the substrate of the
// inclusion-dependency merge-joins and the matcher's instance profiles.
// The returned slice must not be mutated.
func (v *ColumnVector) SortedDistinct() []string {
	v.memoMu.Lock()
	defer v.memoMu.Unlock()
	if v.memo != nil {
		return v.memo
	}
	v.memo = v.computeSortedDistinct()
	return v.memo
}

// computeSortedDistinct builds the sorted distinct rendering. For every
// type the rendering collapses values exactly as FormatValue map keys do.
//
//efes:hot
func (v *ColumnVector) computeSortedDistinct() []string {
	switch v.typ {
	case String:
		out := make([]string, 0, len(v.dict))
		for c, s := range v.dict {
			if v.counts[c] > 0 {
				out = append(out, s)
			}
		}
		sort.Strings(out)
		return out
	case Integer:
		seen := make(map[int64]struct{})
		for i, x := range v.ints {
			if !v.nulls.Get(i) {
				seen[x] = struct{}{}
			}
		}
		out := make([]string, 0, len(seen))
		for x := range seen {
			out = append(out, strconv.FormatInt(x, 10))
		}
		sort.Strings(out)
		return out
	case Float:
		seen := make(map[uint64]struct{})
		for i, x := range v.floats {
			if !v.nulls.Get(i) {
				seen[FloatKey(x)] = struct{}{}
			}
		}
		out := make([]string, 0, len(seen))
		for b := range seen {
			out = append(out, FormatFloat(math.Float64frombits(b)))
		}
		sort.Strings(out)
		return out
	case Bool:
		var hasTrue, hasFalse bool
		for i, x := range v.bools {
			if v.nulls.Get(i) {
				continue
			}
			if x {
				hasTrue = true
			} else {
				hasFalse = true
			}
		}
		out := make([]string, 0, 2)
		if hasFalse {
			out = append(out, "false")
		}
		if hasTrue {
			out = append(out, "true")
		}
		return out
	default: // Time: collapse by rendering (RFC3339 drops sub-second detail)
		seen := make(map[string]struct{})
		for i, x := range v.times {
			if !v.nulls.Get(i) {
				seen[FormatTime(x)] = struct{}{}
			}
		}
		out := make([]string, 0, len(seen))
		for s := range seen {
			out = append(out, s)
		}
		sort.Strings(out)
		return out
	}
}

// invalidate drops the distinct memo. Mutations call it once per vector
// per mutation call, not per cell; a vector ReadCSV has just built has no
// memo to drop.
func (v *ColumnVector) invalidate() {
	v.memoMu.Lock()
	v.memo = nil
	v.memoMu.Unlock()
}

// intern returns the dictionary code of s, adding it with count 0 when
// unseen. The caller adjusts counts.
func (v *ColumnVector) intern(s string) int32 {
	if v.lookup == nil {
		v.lookup = make(map[string]int32, len(v.dict))
		for c, d := range v.dict {
			v.lookup[d] = int32(c)
		}
	}
	if c, ok := v.lookup[s]; ok {
		return c
	}
	c := int32(len(v.dict))
	v.dict = append(v.dict, s)
	v.counts = append(v.counts, 0)
	v.lookup[s] = c
	return c
}

// appendValue appends one canonical (already coerced) cell.
//
//efes:hot
func (v *ColumnVector) appendValue(val Value) {
	i := v.length
	v.length++
	v.stampAppend(i)
	if val == nil {
		v.nulls.set(i)
		v.nullCount++
		v.appendZero()
		return
	}
	switch v.typ {
	case String:
		c := v.intern(val.(string))
		v.codes = append(v.codes, c)
		v.counts[c]++
	case Integer:
		v.ints = append(v.ints, val.(int64))
	case Float:
		v.floats = append(v.floats, val.(float64))
	case Bool:
		v.bools = append(v.bools, val.(bool))
	case Time:
		v.times = append(v.times, val.(time.Time))
	}
}

// appendField parses one CSV field with Coerce's string semantics and
// appends it, without boxing: the empty field is NULL, a string is
// interned straight into the dictionary (copied on first sight, so the
// dictionary does not pin the CSV reader's record buffer), and the other
// types go through the typed parsers. It serves ReadCSV, which builds
// fresh vectors and stamps their chunks when it commits them; on a parse
// failure it appends nothing and returns Coerce's error.
//
//efes:hot
func (v *ColumnVector) appendField(s string) error {
	if s == "" {
		v.nulls.set(v.length)
		v.nullCount++
		v.appendZero()
		v.length++
		return nil
	}
	var err error
	switch v.typ {
	case String:
		c, ok := v.lookup[s]
		if !ok {
			c = v.intern(strings.Clone(s))
		}
		v.codes = append(v.codes, c)
		v.counts[c]++
	case Integer:
		var x int64
		if x, err = ParseInt(s); err == nil {
			v.ints = append(v.ints, x)
		}
	case Float:
		var x float64
		if x, err = ParseFloat(s); err == nil {
			v.floats = append(v.floats, x)
		}
	case Bool:
		var x bool
		if x, err = ParseBool(s); err == nil {
			v.bools = append(v.bools, x)
		}
	case Time:
		var x time.Time
		if x, err = ParseTime(s); err == nil {
			v.times = append(v.times, x)
		}
	}
	if err != nil {
		_, err = Coerce(v.typ, s)
		return err
	}
	v.length++
	return nil
}

// reserve makes room for n rows in the typed storage of a vector
// ReadCSV is building, so that appending up to n rows does not copy
// them; it does nothing when n does not exceed the rows already held.
func (v *ColumnVector) reserve(n int) {
	if n <= v.length {
		return
	}
	switch v.typ {
	case String:
		v.codes = slices.Grow(v.codes, n-len(v.codes))
	case Integer:
		v.ints = slices.Grow(v.ints, n-len(v.ints))
	case Float:
		v.floats = slices.Grow(v.floats, n-len(v.floats))
	case Bool:
		v.bools = slices.Grow(v.bools, n-len(v.bools))
	case Time:
		v.times = slices.Grow(v.times, n-len(v.times))
	}
}

// clip replaces the typed storage of a vector ReadCSV built with a copy
// of its length, giving back the room reserve set aside for rows that
// never came.
func (v *ColumnVector) clip() {
	switch v.typ {
	case String:
		v.codes = slices.Clone(v.codes)
	case Integer:
		v.ints = slices.Clone(v.ints)
	case Float:
		v.floats = slices.Clone(v.floats)
	case Bool:
		v.bools = slices.Clone(v.bools)
	case Time:
		v.times = slices.Clone(v.times)
	}
}

// appendZero appends the zero slot that keeps typed storage positionally
// aligned with the row index for a NULL cell.
func (v *ColumnVector) appendZero() {
	switch v.typ {
	case String:
		v.codes = append(v.codes, 0)
	case Integer:
		v.ints = append(v.ints, 0)
	case Float:
		v.floats = append(v.floats, 0)
	case Bool:
		v.bools = append(v.bools, false)
	case Time:
		v.times = append(v.times, time.Time{})
	}
}

// appendVector appends the rows of src, a vector ReadCSV built that
// nothing else references. A vector with no rows and no dictionary takes
// over src's storage as is; any other appends src's rows one by one, so
// its dictionary grows exactly as under Insert. Either way every chunk
// receiving rows gets a fresh stamp.
func (v *ColumnVector) appendVector(src *ColumnVector) {
	if v.length != 0 || len(v.dict) != 0 {
		for i := 0; i < src.length; i++ {
			v.appendValue(src.Value(i))
		}
		return
	}
	v.codes, v.dict, v.counts, v.lookup = src.codes, src.dict, src.counts, nil
	v.ints, v.floats, v.bools, v.times = src.ints, src.floats, src.bools, src.times
	v.nulls, v.nullCount, v.length = src.nulls, src.nullCount, src.length
	v.stampEpoch++
	v.chunkStamps = v.chunkStamps[:0]
	for k := 0; k < v.Chunks(); k++ {
		v.chunkStamps = append(v.chunkStamps, v.stampEpoch)
	}
}

// clone returns a deep copy of the vector. Strings are immutable, so the
// copy shares them; the interning map and the distinct memo are not
// copied (intern rebuilds the map on the copy's first mutation).
func (v *ColumnVector) clone() *ColumnVector {
	return &ColumnVector{
		typ:         v.typ,
		length:      v.length,
		nulls:       Bitmap{words: slices.Clone(v.nulls.words)},
		nullCount:   v.nullCount,
		codes:       slices.Clone(v.codes),
		dict:        slices.Clone(v.dict),
		counts:      slices.Clone(v.counts),
		ints:        slices.Clone(v.ints),
		floats:      slices.Clone(v.floats),
		bools:       slices.Clone(v.bools),
		times:       slices.Clone(v.times),
		chunkStamps: slices.Clone(v.chunkStamps),
		stampEpoch:  v.stampEpoch,
	}
}

// fill stores the cells of rows [from, from+n) as row-API Values into
// dst[0], dst[stride], dst[2*stride], ... A string column boxes each
// dictionary entry once and shares it between the rows holding it.
func (v *ColumnVector) fill(dst []Value, stride, from, n int) {
	var boxed []Value
	if v.typ == String {
		boxed = make([]Value, len(v.dict))
	}
	for k := 0; k < n; k++ {
		i := from + k
		if v.typ == String && !v.nulls.Get(i) {
			c := v.codes[i]
			if boxed[c] == nil {
				boxed[c] = v.dict[c]
			}
			dst[k*stride] = boxed[c]
			continue
		}
		dst[k*stride] = v.Value(i)
	}
}

// setValue overwrites the cell of row i with a canonical value.
//
//efes:hot
func (v *ColumnVector) setValue(i int, val Value) {
	v.stampTouch(i)
	if v.nulls.Get(i) {
		v.nulls.clear(i)
		v.nullCount--
	} else if v.typ == String {
		v.counts[v.codes[i]]--
	}
	if val == nil {
		v.nulls.set(i)
		v.nullCount++
		v.setZero(i)
		return
	}
	switch v.typ {
	case String:
		c := v.intern(val.(string))
		v.codes[i] = c
		v.counts[c]++
	case Integer:
		v.ints[i] = val.(int64)
	case Float:
		v.floats[i] = val.(float64)
	case Bool:
		v.bools[i] = val.(bool)
	case Time:
		v.times[i] = val.(time.Time)
	}
}

// setZero zeroes the typed slot of row i.
func (v *ColumnVector) setZero(i int) {
	switch v.typ {
	case String:
		v.codes[i] = 0
	case Integer:
		v.ints[i] = 0
	case Float:
		v.floats[i] = 0
	case Bool:
		v.bools[i] = false
	case Time:
		v.times[i] = time.Time{}
	}
}

// deleteRows compacts the vector, removing the rows in drop (indexes
// relative to the pre-delete length; out-of-range entries are ignored,
// matching Database.Delete).
//
//efes:hot
func (v *ColumnVector) deleteRows(drop map[int]struct{}) {
	origLen := v.length
	first := origLen // first actually dropped row, for the chunk stamps
	for i := range drop {
		if i >= 0 && i < origLen && i < first {
			first = i
		}
	}
	w := 0
	var nulls Bitmap
	nullCount := 0
	for i := 0; i < v.length; i++ {
		if _, gone := drop[i]; gone {
			if v.nulls.Get(i) {
				// dropped NULL: nothing to unaccount beyond the bitmap
			} else if v.typ == String {
				v.counts[v.codes[i]]--
			}
			continue
		}
		if v.nulls.Get(i) {
			nulls.set(w)
			nullCount++
		}
		if w != i {
			switch v.typ {
			case String:
				v.codes[w] = v.codes[i]
			case Integer:
				v.ints[w] = v.ints[i]
			case Float:
				v.floats[w] = v.floats[i]
			case Bool:
				v.bools[w] = v.bools[i]
			case Time:
				v.times[w] = v.times[i]
			}
		}
		w++
	}
	switch v.typ {
	case String:
		v.codes = v.codes[:w]
	case Integer:
		v.ints = v.ints[:w]
	case Float:
		v.floats = v.floats[:w]
	case Bool:
		v.bools = v.bools[:w]
	case Time:
		v.times = v.times[:w]
	}
	v.length = w
	v.nulls = nulls
	v.nullCount = nullCount
	if first < origLen { // a row was actually dropped
		v.stampFrom(first)
	}
}

// Vector returns the columnar view of one column, or nil for unknown
// tables or columns. The vector is the column's storage itself: later
// Insert/Update/Delete/ReadCSV calls mutate it in place, and like every
// read it must not run concurrently with mutation.
func (db *Database) Vector(table, column string) *ColumnVector {
	t := db.Schema.Table(table)
	if t == nil {
		return nil
	}
	idx := t.ColumnIndex(column)
	if idx < 0 {
		return nil
	}
	return db.table(t).vecs[idx]
}

// Vectors returns the columnar view of every column of a table in
// declaration order, or nil for unknown tables.
func (db *Database) Vectors(table string) []*ColumnVector {
	t := db.Schema.Table(table)
	if t == nil {
		return nil
	}
	return db.table(t).vecs
}
