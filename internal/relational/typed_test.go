package relational

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestTypedParsersMatchCoerce pins the typed parse helpers to Coerce's
// string semantics: same accepted spellings, same trimming, same
// rejections. The kernels rely on this equivalence for bit-identical
// coerced profiles.
func TestTypedParsersMatchCoerce(t *testing.T) {
	inputs := []string{
		"42", " 42\t", "-7", "3.5", "1e3", "-0", "NaN", "Inf",
		"true", "True", "1", "0", "t", "f", "yes",
		"2024-05-01T10:30:00Z", "2024-05-01 10:30:00", "2024-05-01",
		"", "  ", "abc", "12x", "2024-13-99",
	}
	for _, typ := range []Type{Integer, Float, Bool, Time} {
		for _, s := range inputs {
			want, wantErr := Coerce(typ, s)
			var got Value
			var gotErr error
			switch typ {
			case Integer:
				got, gotErr = ParseInt(s)
			case Float:
				got, gotErr = ParseFloat(s)
			case Bool:
				got, gotErr = ParseBool(s)
			case Time:
				got, gotErr = ParseTime(s)
			}
			if (wantErr == nil) != (gotErr == nil) {
				t.Errorf("%s(%q): error = %v, Coerce error = %v", typ, s, gotErr, wantErr)
				continue
			}
			if wantErr == nil && gotErr == nil && FormatValue(got) != FormatValue(want) {
				t.Errorf("%s(%q) = %v, Coerce = %v", typ, s, got, want)
			}
		}
	}
}

// TestTypedFormattersMatchFormatValue pins FormatFloat and FormatTime to
// FormatValue's renderings.
func TestTypedFormattersMatchFormatValue(t *testing.T) {
	for _, x := range []float64{0, -0.0, 1, -1.5, 1e300, 0.1} {
		if got, want := FormatFloat(x), FormatValue(x); got != want {
			t.Errorf("FormatFloat(%v) = %q, FormatValue = %q", x, got, want)
		}
	}
	for _, ts := range []time.Time{
		time.Date(2024, 5, 1, 10, 30, 0, 0, time.UTC),
		time.Date(1999, 12, 31, 23, 59, 59, 0, time.FixedZone("", 3600)),
	} {
		if got, want := FormatTime(ts), FormatValue(ts); got != want {
			t.Errorf("FormatTime(%v) = %q, FormatValue = %q", ts, got, want)
		}
	}
}

// TestTypedParsersDoNotAllocate is the hotalloc regression: parsing a
// valid string must not heap-allocate (the interface boxing of Coerce's
// return value is exactly what the typed helpers exist to avoid).
func TestTypedParsersDoNotAllocate(t *testing.T) {
	checks := map[string]func(){
		"ParseInt":   func() { _, _ = ParseInt(" 42 ") },
		"ParseFloat": func() { _, _ = ParseFloat("3.5") },
		"ParseBool":  func() { _, _ = ParseBool("true") },
	}
	for name, fn := range checks {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s: %v allocs/op, want 0", name, allocs)
		}
	}
}

// TestSortedDistinctConcurrent exercises the memoMu discipline the
// guardedby annotation on ColumnVector.memo documents: concurrent first
// readers must safely share the one memo build (run under -race by make
// verify).
func TestSortedDistinctConcurrent(t *testing.T) {
	s := NewSchema("conc")
	tab, err := NewTable("t", Column{Name: "c", Type: Integer})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddTable(tab); err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(s)
	for i := 0; i < 1000; i++ {
		db.MustInsert("t", int64(i%37))
	}
	vec := db.Vector("t", "c")
	if vec == nil {
		t.Fatal("Vector returned nil")
	}
	results := make([][]string, 8)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = vec.SortedDistinct()
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if len(r) != 37 {
			t.Fatalf("goroutine %d: %d distinct values, want 37", i, len(r))
		}
	}
}

// TestRenderDictMatchesFormatValue checks RenderDict against a map keyed
// by FormatValue renderings, for every non-String type: entries in
// first-occurrence order, codes and counts consistent, NULL rows
// skipped, and values that render alike (NaN payloads, times equal to
// the second) collapsed while -0 and 0 stay apart.
func TestRenderDictMatchesFormatValue(t *testing.T) {
	zone := time.FixedZone("X", 3600)
	base := time.Date(2024, 5, 1, 10, 30, 0, 0, time.UTC)
	columns := map[Type][]Value{
		Integer: {int64(7), nil, int64(-3), int64(7), int64(0), nil, int64(-3), int64(1) << 62},
		Float:   {0.5, math.Copysign(0, -1), 0.0, math.NaN(), nil, math.Float64frombits(0x7ff8000000000001), math.Inf(-1), 0.5, 1e21},
		Bool:    {nil, true, true, false, nil, true},
		Time:    {base, nil, base.Add(300 * time.Millisecond), base.In(zone), base.Add(time.Second), base},
	}
	for typ, vals := range columns {
		s := NewSchema("render")
		s.MustAddTable(MustTable("t", Column{Name: "c", Type: typ}))
		db := NewDatabase(s)
		for _, v := range vals {
			db.MustInsert("t", v)
		}
		var want []string
		wantCounts := map[string]int{}
		for _, v := range db.MustColumn("t", "c") {
			if v == nil {
				continue
			}
			r := FormatValue(v)
			if wantCounts[r] == 0 {
				want = append(want, r)
			}
			wantCounts[r]++
		}
		vec := db.Vector("t", "c")
		dict, codes, counts := RenderDict(vec)
		if !reflect.DeepEqual(dict, want) && !(len(dict) == 0 && len(want) == 0) {
			t.Fatalf("%s: dict = %q, want %q", typ, dict, want)
		}
		if len(codes) != vec.Len() || len(counts) != len(dict) {
			t.Fatalf("%s: %d codes for %d rows, %d counts for %d entries", typ, len(codes), vec.Len(), len(counts), len(dict))
		}
		for c, r := range dict {
			if counts[c] != wantCounts[r] {
				t.Errorf("%s: count of %q = %d, want %d", typ, r, counts[c], wantCounts[r])
			}
		}
		for i, v := range db.MustColumn("t", "c") {
			if v != nil && dict[codes[i]] != FormatValue(v) {
				t.Errorf("%s: row %d renders %q, want %q", typ, i, dict[codes[i]], FormatValue(v))
			}
		}
	}
}
