package relational

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
)

// TestCSVAppendersBounded pins the appender count of ReadCSV: one per
// column up to csvAppendersPerProc per GOMAXPROCS, whatever the schema
// width, with every column owned by exactly one appender.
func TestCSVAppendersBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		bound := csvAppendersPerProc * procs
		for _, width := range []int{0, 1, 3, bound, bound + 1, 300, 10000} {
			apps := newCSVAppenders(width)
			want := max(1, min(width, bound))
			if len(apps) != want {
				t.Fatalf("GOMAXPROCS %d, width %d: %d appenders, want %d", procs, width, len(apps), want)
			}
			owner := make([]int, width)
			for c := range owner {
				owner[c] = -1
			}
			for a, app := range apps {
				for _, c := range app.cols {
					if owner[c] != -1 {
						t.Fatalf("GOMAXPROCS %d, width %d: column %d owned twice", procs, width, c)
					}
					owner[c] = a
				}
				if n := len(app.cols); n > (width+want-1)/want {
					t.Fatalf("GOMAXPROCS %d, width %d: appender %d owns %d columns", procs, width, a, n)
				}
			}
			for c, a := range owner {
				if a == -1 {
					t.Fatalf("GOMAXPROCS %d, width %d: column %d unowned", procs, width, c)
				}
			}
		}
	}
}

// TestReadCSVTenThousandColumns loads a 10,000-column table, whose
// columns the bounded appenders share.
func TestReadCSVTenThousandColumns(t *testing.T) {
	const width = 10000
	cols := make([]Column, width)
	names := make([]string, width)
	for c := range cols {
		names[c] = fmt.Sprintf("c%d", c)
		cols[c] = Column{Name: names[c], Type: Integer}
	}
	s := NewSchema("wide")
	s.MustAddTable(MustTable("w", cols...))
	var in strings.Builder
	in.WriteString(strings.Join(names, ",") + "\n")
	for r := 0; r < 3; r++ {
		for c := range cols {
			if c > 0 {
				in.WriteByte(',')
			}
			fmt.Fprint(&in, r*width+c)
		}
		in.WriteByte('\n')
	}
	db := NewDatabase(s)
	if err := db.ReadCSV("w", strings.NewReader(in.String())); err != nil {
		t.Fatal(err)
	}
	if got := db.Vector("w", "c9999").Ints(); len(got) != 3 || got[2] != 2*width+9999 {
		t.Fatalf("column c9999 = %v", got)
	}
}

// TestReadCSVZeroColumnTable loads CSV into a table without columns: a
// header with fields is a mismatch, not an index out of range.
func TestReadCSVZeroColumnTable(t *testing.T) {
	s, err := ParseSchemaText("schema z\n  table empty()\n")
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(s)
	err = db.ReadCSV("empty", strings.NewReader("x\n1\n"))
	if err == nil || !strings.Contains(err.Error(), "header mismatch") {
		t.Fatalf("ReadCSV = %v, want a header mismatch", err)
	}
	if db.NumRows("empty") != 0 {
		t.Fatalf("failed load left %d rows", db.NumRows("empty"))
	}
}

// TestReadCSVSizeHint loads records of one length from a reader that
// knows its length: the first batch's estimate sizes the vector once, to
// within its allocation size class, with no growth past it. From a
// reader that does not, the load is the same.
func TestReadCSVSizeHint(t *testing.T) {
	s := NewSchema("hint")
	s.MustAddTable(MustTable("n", Column{Name: "v", Type: Integer}))
	const records = 5 * csvBatchRecords
	var in strings.Builder
	in.WriteString("v\n")
	for r := 0; r < records; r++ {
		fmt.Fprintf(&in, "%06d\n", r)
	}
	for _, r := range []io.Reader{strings.NewReader(in.String()), struct{ io.Reader }{strings.NewReader(in.String())}} {
		db := NewDatabase(s)
		if err := db.ReadCSV("n", r); err != nil {
			t.Fatal(err)
		}
		ints := db.Vector("n", "v").Ints()
		if len(ints) != records || ints[records-1] != records-1 {
			t.Fatalf("%T: loaded %d rows", r, len(ints))
		}
		if _, sized := r.(*strings.Reader); sized && (cap(ints) < records || cap(ints) > records*21/20) {
			t.Errorf("capacity %d for %d records, want the estimate within 5%%", cap(ints), records)
		}
	}
}

// TestReadCSVSizeHintOvershoot loads a first batch of empty records
// followed by long ones, so the first batch's estimate exceeds the
// records by orders of magnitude: the loaded vectors must still hold
// about as much room as they have rows, and the values must load.
func TestReadCSVSizeHintOvershoot(t *testing.T) {
	s := NewSchema("hint")
	s.MustAddTable(MustTable("o",
		Column{Name: "s", Type: String},
		Column{Name: "ts", Type: Time},
	))
	const long = 2 * csvBatchRecords
	var in strings.Builder
	in.WriteString("s,ts\n")
	for r := 0; r < csvBatchRecords; r++ {
		in.WriteString(",\n")
	}
	pad := strings.Repeat("x", 500)
	for r := 0; r < long; r++ {
		fmt.Fprintf(&in, "%s%d,2024-01-02T03:04:05Z\n", pad, r)
	}
	db := NewDatabase(s)
	if err := db.ReadCSV("o", strings.NewReader(in.String())); err != nil {
		t.Fatal(err)
	}
	rows := csvBatchRecords + long
	codes, times := db.Vector("o", "s").Codes(), db.Vector("o", "ts").Times()
	if len(codes) != rows || len(times) != rows {
		t.Fatalf("loaded %d/%d rows, want %d", len(codes), len(times), rows)
	}
	if got := db.Vector("o", "s").Value(rows - 1); got != fmt.Sprintf("%s%d", pad, long-1) {
		t.Fatalf("last row s = %v", got)
	}
	if cap(codes) > rows*9/8 || cap(times) > rows*9/8 {
		t.Errorf("capacities %d and %d for %d rows: the estimate's room outlived the load", cap(codes), cap(times), rows)
	}
}
