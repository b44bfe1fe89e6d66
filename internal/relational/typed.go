package relational

// Typed parse/format helpers: the string↔typed conversions behind Coerce
// and FormatValue, exposed without interface boxing so the //efes:hot
// kernels can convert once per dictionary entry without allocating per
// value. Coerce and FormatValue delegate here, so the row path and the
// fused kernels share one implementation by construction.

import (
	"strconv"
	"strings"
	"time"
)

// ParseInt parses a string as an Integer value with Coerce's string
// semantics: surrounding space trimmed, base 10, 64-bit.
func ParseInt(s string) (int64, error) {
	return strconv.ParseInt(strings.TrimSpace(s), 10, 64)
}

// ParseFloat parses a string as a Float value with Coerce's string
// semantics.
func ParseFloat(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(s), 64)
}

// ParseBool parses a string as a Bool value with Coerce's string
// semantics (strconv.ParseBool's accepted spellings).
func ParseBool(s string) (bool, error) {
	return strconv.ParseBool(strings.TrimSpace(s))
}

// timeLayouts are the accepted Time renderings, most specific first.
var timeLayouts = []string{time.RFC3339, "2006-01-02 15:04:05", "2006-01-02"}

// ParseTime parses a string as a Time value, trying the same layouts in
// the same order as Coerce.
func ParseTime(s string) (time.Time, error) {
	s = strings.TrimSpace(s)
	var firstErr error
	for _, layout := range timeLayouts {
		ts, err := time.Parse(layout, s)
		if err == nil {
			return ts, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return time.Time{}, firstErr
}

// FormatFloat renders a float exactly as FormatValue does.
func FormatFloat(x float64) string {
	return strconv.FormatFloat(x, 'g', -1, 64)
}

// FormatTime renders a time exactly as FormatValue does.
func FormatTime(t time.Time) string {
	return t.Format(time.RFC3339)
}

// RenderDict dictionary-encodes a non-String column by its FormatValue
// rendering, the encoding a String column keeps natively: dict holds the
// distinct renderings of the non-NULL rows in first-occurrence row
// order, codes holds one entry per row (meaningless for NULL rows), and
// counts holds the occurrences of each entry. Every entry is a slice of
// one arena string, so the encoding allocates a handful of slices plus
// the dedup map, not one string per distinct value. It panics on a
// String column, whose own Dict, Codes and Counts are the encoding.
//
// The result is rebuilt on every call and never memoized on the vector:
// its consumers each need it once, and a memo would pin a rendering of
// every column for the vector's lifetime. They are the CSG interning of a
// non-String attribute (whose element IDs follow first occurrence), the
// sharded profiler's String view of a Float, Bool or Time column, and the
// single-pass profiler's String view of every type. The sharded String
// view of an Integer column does not render at all: the profiler derives
// its statistics from the integers themselves.
//
//efes:hot
func RenderDict(v *ColumnVector) (dict []string, codes []int32, counts []int) {
	d := renderedDict{codes: make([]int32, v.length)}
	switch v.typ {
	case Integer:
		seen := make(map[int64]int32)
		for i, x := range v.ints {
			if v.nulls.Get(i) {
				continue
			}
			c, ok := seen[x]
			if !ok {
				c = d.open(strconv.AppendInt(d.arena, x, 10))
				seen[x] = c
			}
			d.add(i, c)
		}
	case Float:
		seen := make(map[uint64]int32)
		for i, x := range v.floats {
			if v.nulls.Get(i) {
				continue
			}
			k := FloatKey(x)
			c, ok := seen[k]
			if !ok {
				c = d.open(strconv.AppendFloat(d.arena, x, 'g', -1, 64))
				seen[k] = c
			}
			d.add(i, c)
		}
	case Bool:
		code := [2]int32{-1, -1} // false, true
		for i, x := range v.bools {
			if v.nulls.Get(i) {
				continue
			}
			b := 0
			if x {
				b = 1
			}
			if code[b] < 0 {
				code[b] = d.open(strconv.AppendBool(d.arena, x))
			}
			d.add(i, code[b])
		}
	case Time:
		// Times collapse by rendering (RFC3339 drops sub-second detail),
		// so each row is rendered onto the arena's tail and looked up by
		// those bytes; a repeat is truncated away again.
		seen := make(map[string]int32)
		for i, x := range v.times {
			if v.nulls.Get(i) {
				continue
			}
			start := len(d.arena)
			d.arena = x.AppendFormat(d.arena, time.RFC3339)
			c, ok := seen[string(d.arena[start:])]
			if ok {
				d.arena = d.arena[:start]
			} else {
				c = d.open(d.arena)
				//lint:ignore hotalloc the map keeps its own copy of each distinct rendering, once per entry, not per row
				seen[string(d.arena[start:])] = c
			}
			d.add(i, c)
		}
	default:
		panic("relational: RenderDict of a " + v.typ.String() + " column")
	}
	all := string(d.arena)
	dict = make([]string, len(d.ends))
	lo := 0
	for c, hi := range d.ends {
		dict[c] = all[lo:hi]
		lo = hi
	}
	return dict, d.codes, d.counts
}

// renderedDict accumulates RenderDict's encoding: entry c renders as
// arena[ends[c-1]:ends[c]].
type renderedDict struct {
	codes  []int32
	counts []int
	ends   []int
	arena  []byte
}

// open starts a new entry whose rendering is the tail the caller just
// appended to the arena (passed back as arena), and returns its code.
func (d *renderedDict) open(arena []byte) int32 {
	d.arena = arena
	d.ends = append(d.ends, len(arena))
	d.counts = append(d.counts, 0)
	return int32(len(d.ends) - 1)
}

// add assigns row i to entry c.
func (d *renderedDict) add(i int, c int32) {
	d.counts[c]++
	d.codes[i] = c
}
