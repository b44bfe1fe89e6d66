package relational_test

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"efes/internal/relational"
)

// ingestSchema has one column of every type.
func ingestSchema() *relational.Schema {
	s := relational.NewSchema("ingest")
	s.MustAddTable(relational.MustTable("t",
		relational.Column{Name: "s", Type: relational.String},
		relational.Column{Name: "i", Type: relational.Integer},
		relational.Column{Name: "f", Type: relational.Float},
		relational.Column{Name: "b", Type: relational.Bool},
		relational.Column{Name: "ts", Type: relational.Time},
	))
	return s
}

// randomIngestRow draws one row with NULLs and values CSV round-trips
// exactly: no empty strings (CSV cannot tell them from NULL), no "\r\n"
// inside a field (the reader normalizes it to "\n") and UTC times at
// second resolution (RFC3339 drops the rest).
func randomIngestRow(rng *rand.Rand) []relational.Value {
	row := make([]relational.Value, 5)
	strs := []string{"a", "Sweet, \"Home\"", "line\nbreak", " lead", "trail ", "日本語", "NaN", "42", `\.`}
	floats := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 0.1, 1e-300, -2.5e300}
	for c := range row {
		if rng.Intn(10) == 0 {
			continue // NULL
		}
		switch c {
		case 0:
			if rng.Intn(2) == 0 {
				row[c] = strs[rng.Intn(len(strs))]
			} else {
				row[c] = fmt.Sprintf("v%d", rng.Intn(5000))
			}
		case 1:
			row[c] = rng.Int63n(2000) - 1000
			if rng.Intn(50) == 0 {
				row[c] = int64(math.MinInt64)
			}
		case 2:
			if rng.Intn(4) == 0 {
				row[c] = floats[rng.Intn(len(floats))]
			} else {
				row[c] = rng.NormFloat64() * 1e3
			}
		case 3:
			row[c] = rng.Intn(2) == 0
		case 4:
			row[c] = time.Unix(rng.Int63n(4e9), 0).UTC()
		}
	}
	return row
}

// sameValue compares two row-API values by type and rendering, so NaNs
// compare equal and -0 differs from 0.
func sameValue(a, b relational.Value) bool {
	return reflect.TypeOf(a) == reflect.TypeOf(b) && relational.FormatValue(a) == relational.FormatValue(b)
}

// sameVectors compares the storage of two columns: dictionary order,
// codes and counts, null bitmaps and typed slots.
func sameVectors(t *testing.T, ctx string, want, got *relational.ColumnVector) {
	t.Helper()
	if want.Type() != got.Type() || want.Len() != got.Len() || want.NullCount() != got.NullCount() {
		t.Fatalf("%s: shape: want %v/%d/%d, got %v/%d/%d", ctx,
			want.Type(), want.Len(), want.NullCount(), got.Type(), got.Len(), got.NullCount())
	}
	for i := 0; i < want.Len(); i++ {
		if want.Null(i) != got.Null(i) {
			t.Fatalf("%s: row %d: null %v, want %v", ctx, i, got.Null(i), want.Null(i))
		}
	}
	if !reflect.DeepEqual(want.Dict(), got.Dict()) || !reflect.DeepEqual(want.Codes(), got.Codes()) ||
		!reflect.DeepEqual(want.Counts(), got.Counts()) {
		t.Fatalf("%s: dictionary encoding differs", ctx)
	}
	if !reflect.DeepEqual(want.Ints(), got.Ints()) || !reflect.DeepEqual(want.Bools(), got.Bools()) {
		t.Fatalf("%s: integer or boolean slots differ", ctx)
	}
	if len(want.Floats()) != len(got.Floats()) || len(want.Times()) != len(got.Times()) {
		t.Fatalf("%s: float or time slot counts differ", ctx)
	}
	for i, x := range want.Floats() {
		if relational.FloatKey(x) != relational.FloatKey(got.Floats()[i]) {
			t.Fatalf("%s: row %d: float %v, want %v", ctx, i, got.Floats()[i], x)
		}
	}
	for i, x := range want.Times() {
		if !x.Equal(got.Times()[i]) || x.Location() != got.Times()[i].Location() {
			t.Fatalf("%s: row %d: time %v, want %v", ctx, i, got.Times()[i], x)
		}
	}
}

// sameTable compares two instances of the one-table ingest schema
// through every view: vectors, rows, CSV bytes and content hash.
func sameTable(t *testing.T, ctx string, want, got *relational.Database) {
	t.Helper()
	if want.NumRows("t") != got.NumRows("t") {
		t.Fatalf("%s: rows %d, want %d", ctx, got.NumRows("t"), want.NumRows("t"))
	}
	for c, vec := range want.Vectors("t") {
		sameVectors(t, fmt.Sprintf("%s: column %d", ctx, c), vec, got.Vectors("t")[c])
	}
	wantRows, gotRows := want.Rows("t"), got.Rows("t")
	for r := range wantRows {
		for c := range wantRows[r] {
			if !sameValue(wantRows[r][c], gotRows[r][c]) {
				t.Fatalf("%s: row %d column %d: %#v, want %#v", ctx, r, c, gotRows[r][c], wantRows[r][c])
			}
		}
	}
	var wb, gb bytes.Buffer
	if err := want.WriteCSV("t", &wb); err != nil {
		t.Fatal(err)
	}
	if err := got.WriteCSV("t", &gb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
		t.Fatalf("%s: WriteCSV bytes differ", ctx)
	}
	if hashOf(t, want) != hashOf(t, got) {
		t.Fatalf("%s: content hashes differ", ctx)
	}
}

func hashOf(t *testing.T, db *relational.Database) string {
	t.Helper()
	h, err := db.ContentHash("t")
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func stampsOf(vec *relational.ColumnVector) []uint64 {
	out := make([]uint64, vec.Chunks())
	for k := range out {
		out[k] = vec.ChunkStamp(k)
	}
	return out
}

// TestReadCSVMatchesInsert loads the same multi-chunk table through
// ReadCSV (into an empty table, and appended to Insert-built rows) and
// through Insert alone: every view of the two must agree, and the loaded
// vectors keep the chunk-stamp contract.
func TestReadCSVMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := relational.ChunkSize + 37
	rows := make([][]relational.Value, n)
	for i := range rows {
		rows[i] = randomIngestRow(rng)
	}
	built := relational.NewDatabase(ingestSchema())
	for _, row := range rows {
		built.MustInsert("t", row...)
	}
	var all bytes.Buffer
	if err := built.WriteCSV("t", &all); err != nil {
		t.Fatal(err)
	}

	loaded := relational.NewDatabase(built.Schema)
	if err := loaded.ReadCSV("t", bytes.NewReader(all.Bytes())); err != nil {
		t.Fatal(err)
	}
	sameTable(t, "empty table", built, loaded)

	// Appending to a table with rows interns into its dictionary as
	// Insert would.
	head := 1000
	appended := relational.NewDatabase(built.Schema)
	tail := relational.NewDatabase(built.Schema)
	for i, row := range rows {
		if i < head {
			appended.MustInsert("t", row...)
		} else {
			tail.MustInsert("t", row...)
		}
	}
	var rest bytes.Buffer
	if err := tail.WriteCSV("t", &rest); err != nil {
		t.Fatal(err)
	}
	if err := appended.ReadCSV("t", &rest); err != nil {
		t.Fatal(err)
	}
	sameTable(t, "appended", built, appended)

	// Chunk stamps: every chunk of a load is stamped, and a change to a
	// row changes its own chunk's stamp only.
	vec := loaded.Vector("t", "i")
	before := stampsOf(vec)
	if len(before) != 2 || before[0] == 0 || before[1] == 0 {
		t.Fatalf("stamps after load = %v, want two nonzero", before)
	}
	if err := loaded.Update("t", 3, "i", 1); err != nil {
		t.Fatal(err)
	}
	after := stampsOf(vec)
	if after[0] == before[0] || after[1] != before[1] {
		t.Fatalf("update of row 3: stamps %v -> %v, want chunk 0 only", before, after)
	}
	loaded.MustInsert("t", nil, 2, nil, nil, nil)
	last := stampsOf(vec)
	if last[0] != after[0] || last[1] == after[1] {
		t.Fatalf("insert: stamps %v -> %v, want the last chunk only", after, last)
	}
}

// TestReadCSVMidFileErrorLeavesTableUntouched fails a load several
// batches in: the error names the field, the table keeps its rows,
// vectors and hash, and no goroutine outlives the call.
func TestReadCSVMidFileErrorLeavesTableUntouched(t *testing.T) {
	db := relational.NewDatabase(ingestSchema())
	db.MustInsert("t", "kept", 1, 1.5, true, nil)
	vec := db.Vector("t", "s")
	hash := hashOf(t, db)

	var in strings.Builder
	in.WriteString("s,i,f,b,ts\n")
	for r := 0; r < 5000; r++ {
		i := fmt.Sprint(r)
		if r == 3000 {
			i = "x3000"
		}
		fmt.Fprintf(&in, "row%d,%s,%d.5,true,2021-01-02T03:04:05Z\n", r, i, r)
	}
	goroutines := runtime.NumGoroutine()
	err := db.ReadCSV("t", strings.NewReader(in.String()))
	if err == nil {
		t.Fatal("malformed integer must fail the load")
	}
	// Record r sits on input line r+2 (line 1 is the header).
	for _, want := range []string{"csv for t", "line 3002", "column i", "string(x3000)"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q lacks %q", err, want)
		}
	}
	if n := settledGoroutines(goroutines); n != goroutines {
		t.Errorf("goroutines: %d before ReadCSV, still %d after 5s", goroutines, n)
	}
	if db.NumRows("t") != 1 || db.Vector("t", "s") != vec || vec.Len() != 1 || hashOf(t, db) != hash {
		t.Errorf("failed load changed the table: rows %d, vector len %d", db.NumRows("t"), vec.Len())
	}
}

// settledGoroutines polls runtime.NumGoroutine until it is back at want,
// for up to five seconds, and returns the last count. A goroutine that
// has been joined may still be on its way out when its joiner returns,
// so one sample can read one too many.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(5 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n == want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// referenceReadCSV is the reference decoder: encoding/csv plus Coerce per
// field into a plain [][]Value model, with ReadCSV's error texts. It
// stops at the first error in input order.
func referenceReadCSV(tab *relational.Table, data string) ([][]relational.Value, error) {
	cr := csv.NewReader(strings.NewReader(data))
	cr.FieldsPerRecord = len(tab.Columns)
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relational: read csv for %s: %w", tab.Name, err)
	}
	for i, name := range header {
		if name != tab.Columns[i].Name {
			return nil, fmt.Errorf("relational: csv header mismatch for %s: got %q, want %q", tab.Name, name, tab.Columns[i].Name)
		}
	}
	var rows [][]relational.Value
	for {
		record, err := cr.Read()
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, fmt.Errorf("relational: read csv for %s: %w", tab.Name, err)
		}
		row := make([]relational.Value, len(record))
		for i, field := range record {
			if field == "" {
				continue
			}
			v, err := relational.Coerce(tab.Columns[i].Type, field)
			if err != nil {
				line, _ := cr.FieldPos(i)
				return nil, fmt.Errorf("relational: csv for %s: line %d, column %s: %w", tab.Name, line, tab.Columns[i].Name, err)
			}
			row[i] = v
		}
		rows = append(rows, row)
	}
}

// checkAgainstReference loads data into an empty table and into one
// with a row already, and compares both with the reference decoder:
// the same error text, or the same rows and CSV encoding; a failed load
// leaves the table as it was.
func checkAgainstReference(t *testing.T, data string) {
	t.Helper()
	schema := ingestSchema()
	want, wantErr := referenceReadCSV(schema.Table("t"), data)
	for _, pre := range [][]relational.Value{nil, {"pre", 1, 2.5, false, nil}} {
		db := relational.NewDatabase(schema)
		var model [][]relational.Value
		if pre != nil {
			db.MustInsert("t", pre...)
			model = append(model, db.Rows("t")[0])
		}
		hash := hashOf(t, db)
		err := db.ReadCSV("t", strings.NewReader(data))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("ReadCSV error %v, reference %v", err, wantErr)
		}
		if err != nil {
			if db.NumRows("t") != len(model) || hashOf(t, db) != hash {
				t.Fatalf("failed load changed the table")
			}
			continue
		}
		model = append(model, want...)
		got := db.Rows("t")
		if len(got) != len(model) {
			t.Fatalf("rows = %d, reference %d", len(got), len(model))
		}
		for r := range model {
			for c := range model[r] {
				if !sameValue(model[r][c], got[r][c]) {
					t.Fatalf("row %d column %d: %#v, reference %#v", r, c, got[r][c], model[r][c])
				}
			}
		}
		var enc bytes.Buffer
		cw := csv.NewWriter(&enc)
		cw.Write(schema.Table("t").ColumnNames())
		for _, row := range model {
			record := make([]string, len(row))
			for c, v := range row {
				record[c] = relational.FormatValue(v)
			}
			cw.Write(record)
		}
		cw.Flush()
		var out bytes.Buffer
		if err := db.WriteCSV("t", &out); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), enc.Bytes()) {
			t.Fatalf("WriteCSV:\n%q\nreference:\n%q", out.String(), enc.String())
		}
	}
}

// readCSVCases are hand-picked inputs for the reference comparison, also
// the fuzz target's in-code seeds.
var readCSVCases = []string{
	"s,i,f,b,ts\n",
	"s,i,f,b,ts\na,1,1.5,true,2021-01-02\n,,,,\n",
	"s,i,f,b,ts\n\"multi\nline\",x,1,true,2021-01-02\n",          // error on the record's second line
	"s,i,f,b,ts\na,1,1,maybe,2021-01-02\nb,2,2,true\n",           // parse error before a short record
	"s,i,f,b,ts\nb,2,2,true\na,1,1,maybe,2021-01-02\n",           // short record before a parse error
	"s,i,f,b,ts\na,x,y,true,2021-01-02\n",                        // two bad fields: the first wins
	"s,i,f,b,ts\na,1,y,true,2021-01-02\nb,x,1,true,2021-01-02\n", // a later column of an earlier record wins
	"s,i,f,b,ts\na, 7 ,NaN,T,2021-01-02 03:04:05\n",              // Coerce trims space
	"s,i,f,b,ts\n\"q\"\"uote\",-0,-0,0,2021-01-02T03:04:05+02:00\n",
	"s,i,f,b,ts\na,9223372036854775808,1,true,2021-01-02\n", // integer overflow
	"s,i,x,b,ts\n",                           // header mismatch
	"s,i,f\n",                                // short header
	"s,i,f,b,ts\na\"b,1,1,true,2021-01-02\n", // bare quote
	"s,i,f,b,ts\n\"x\r\ny\",1,1,true,2021-01-02\r\n",
	"",
}

func TestReadCSVMatchesReferenceDecoder(t *testing.T) {
	for _, data := range readCSVCases {
		checkAgainstReference(t, data)
	}
}

// FuzzReadCSV compares ReadCSV with the reference decoder on arbitrary
// input. Seeds: readCSVCases plus testdata/fuzz/FuzzReadCSV.
func FuzzReadCSV(f *testing.F) {
	for _, data := range readCSVCases {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data string) {
		checkAgainstReference(t, data)
	})
}
