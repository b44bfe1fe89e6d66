package relational_test

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"efes/internal/relational"
)

// batchRecords mirrors csvBatchRecords, the records per batch the CSV
// reader hands its appenders.
const batchRecords = 1024

// generatedIngestCSV renders records valid rows of the ingest schema,
// the field of record r in column c replaced by bad[[2]int{r, c}], and
// record short (when positive) cut to its first two fields.
func generatedIngestCSV(records int, bad map[[2]int]string, short int) string {
	var in strings.Builder
	in.WriteString("s,i,f,b,ts\n")
	for r := 0; r < records; r++ {
		fields := []string{fmt.Sprintf("v%d", r%700), fmt.Sprint(r), fmt.Sprintf("%d.25", r), "true", "2021-01-02T03:04:05Z"}
		for c := range fields {
			if s, ok := bad[[2]int{r, c}]; ok {
				fields[c] = s
			}
		}
		if r == short && short > 0 {
			fields = fields[:2]
		}
		in.WriteString(strings.Join(fields, ",") + "\n")
	}
	return in.String()
}

// atProcs runs f trials times at each of GOMAXPROCS 1, 2 and 8: which
// appender fails first in time depends on the scheduling, and the error
// reported must not.
func atProcs(t *testing.T, trials int, f func(t *testing.T)) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		t.Run(fmt.Sprintf("procs=%d", procs), func(t *testing.T) {
			for trial := 0; trial < trials; trial++ {
				f(t)
			}
		})
	}
}

// TestReadCSVParallelErrorOrder fails loads of at least three batches in
// ways where the appender that fails first in time does not hold the
// first malformed field in input order: ReadCSV must still report the
// reference decoder's error.
func TestReadCSVParallelErrorOrder(t *testing.T) {
	const records = 3*batchRecords + 100
	cases := []struct {
		name  string
		bad   map[[2]int]string
		short int
		want  string
	}{
		{
			name: "earlier record's later column, later batch's earlier column",
			bad:  map[[2]int]string{{1500, 4}: "x", {2100, 1}: "y"},
			want: "line 1502, column ts",
		},
		{
			name: "earlier record's later column, next record's earlier column",
			bad:  map[[2]int]string{{1500, 4}: "x", {1501, 1}: "y"},
			want: "line 1502, column ts",
		},
		{
			name: "last column of a batch's first record, first column of every later record",
			bad: func() map[[2]int]string {
				m := map[[2]int]string{{batchRecords, 4}: "x"}
				for r := batchRecords + 1; r < records; r++ {
					m[[2]int{r, 1}] = "y"
				}
				return m
			}(),
			want: fmt.Sprintf("line %d, column ts", batchRecords+2),
		},
		{
			name: "two columns of one record",
			bad:  map[[2]int]string{{2500, 3}: "maybe", {2500, 2}: "z"},
			want: "line 2502, column f",
		},
		{
			name:  "parse error in batch k, field-count error in batch k+1",
			bad:   map[[2]int]string{{1100, 3}: "maybe"},
			short: 2200,
			want:  "line 1102, column b",
		},
		{
			name:  "field-count error in batch k, parse error in batch k+1",
			bad:   map[[2]int]string{{2200, 3}: "maybe"},
			short: 1100,
			want:  "record on line 1102: wrong number of fields",
		},
		{
			name:  "field-count error alone",
			short: 2200,
			want:  "record on line 2202: wrong number of fields",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := generatedIngestCSV(records, tc.bad, tc.short)
			_, refErr := referenceReadCSV(ingestSchema().Table("t"), data)
			if refErr == nil || !strings.Contains(refErr.Error(), tc.want) {
				t.Fatalf("reference error %v, want one naming %q", refErr, tc.want)
			}
			atProcs(t, 8, func(t *testing.T) { checkAgainstReference(t, data) })
		})
	}
	t.Run("valid", func(t *testing.T) {
		data := generatedIngestCSV(records, nil, 0)
		atProcs(t, 1, func(t *testing.T) { checkAgainstReference(t, data) })
	})
}

// wideSchema has 300 columns cycling through the types: more columns
// than the appender bound at GOMAXPROCS 1, 2 and 8, so appenders share
// columns.
func wideSchema() *relational.Schema {
	types := []relational.Type{relational.String, relational.Integer, relational.Float, relational.Bool, relational.Time}
	cols := make([]relational.Column, 300)
	for c := range cols {
		cols[c] = relational.Column{Name: fmt.Sprintf("c%d", c), Type: types[c%len(types)]}
	}
	s := relational.NewSchema("wide")
	s.MustAddTable(relational.MustTable("w", cols...))
	return s
}

// wideRows renders records rows of wideSchema in canonical form (as
// WriteCSV writes them), one NULL in 97 fields.
func wideRows(records int) [][]string {
	cols := wideSchema().Table("w").Columns
	rows := make([][]string, records)
	for r := range rows {
		fields := make([]string, len(cols))
		for c, col := range cols {
			switch {
			case (r+c)%97 == 0:
				// NULL
			case col.Type == relational.String:
				fields[c] = "s" + strconv.Itoa((r+c)%50)
			case col.Type == relational.Integer:
				fields[c] = strconv.Itoa(r * c)
			case col.Type == relational.Float:
				fields[c] = strconv.Itoa(r+c) + ".5"
			case col.Type == relational.Bool:
				fields[c] = strconv.FormatBool((r+c)%2 == 0)
			default:
				fields[c] = fmt.Sprintf("2021-01-02T03:04:%02dZ", (r+c)%60)
			}
		}
		rows[r] = fields
	}
	return rows
}

// wideCSV renders the header and rows, the field of record r in column c
// replaced by bad[[2]int{r, c}].
func wideCSV(rows [][]string, bad map[[2]int]string) string {
	var in strings.Builder
	in.WriteString(strings.Join(wideSchema().Table("w").ColumnNames(), ",") + "\n")
	for r, fields := range rows {
		for c, f := range fields {
			if c > 0 {
				in.WriteByte(',')
			}
			if s, ok := bad[[2]int{r, c}]; ok {
				f = s
			}
			in.WriteString(f)
		}
		in.WriteByte('\n')
	}
	return in.String()
}

// TestReadCSVWideTable loads a 300-column table of three batches and
// more, whole and with errors in columns that share an appender, and
// compares each load with the reference decoder: the same error text,
// or the same rows, checked by WriteCSV rendering the canonical input
// back byte for byte.
func TestReadCSVWideTable(t *testing.T) {
	schema := wideSchema()
	tab := schema.Table("w")
	rows := wideRows(3*batchRecords + 7)
	cases := []map[[2]int]string{
		nil,
		{{2000, 299}: "x", {2001, 1}: "y", {2001, 3}: "z"}, // column 299 shares an appender with low columns
		{{1030, 3}: "maybe", {1030, 1}: "one"},             // two columns of one record
		{{1030, 4}: "never", {3000, 2}: "nan?"},            // errors two batches apart
	}
	for k, bad := range cases {
		data := wideCSV(rows, bad)
		want, wantErr := referenceReadCSV(tab, data)
		if (wantErr == nil) != (bad == nil) {
			t.Fatalf("case %d: reference error %v", k, wantErr)
		}
		atProcs(t, 1, func(t *testing.T) {
			db := relational.NewDatabase(schema)
			err := db.ReadCSV("w", strings.NewReader(data))
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("case %d: ReadCSV error %v, reference %v", k, err, wantErr)
			}
			if err != nil {
				if db.NumRows("w") != 0 {
					t.Fatalf("case %d: failed load left %d rows", k, db.NumRows("w"))
				}
				return
			}
			if db.NumRows("w") != len(want) {
				t.Fatalf("case %d: rows = %d, reference %d", k, db.NumRows("w"), len(want))
			}
			var out strings.Builder
			if err := db.WriteCSV("w", &out); err != nil {
				t.Fatal(err)
			}
			if out.String() != data {
				t.Fatalf("case %d: WriteCSV does not render the loaded table back", k)
			}
		})
	}
}
