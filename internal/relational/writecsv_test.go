package relational_test

import (
	"bytes"
	"encoding/csv"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"efes/internal/relational"
	"efes/internal/scenario"
)

// cellSchema has two string columns and one column of every other type.
func cellSchema() *relational.Schema {
	s := relational.NewSchema("cells")
	s.MustAddTable(relational.MustTable("c",
		relational.Column{Name: "s", Type: relational.String},
		relational.Column{Name: "s2", Type: relational.String},
		relational.Column{Name: "i", Type: relational.Integer},
		relational.Column{Name: "f", Type: relational.Float},
		relational.Column{Name: "b", Type: relational.Bool},
		relational.Column{Name: "ts", Type: relational.Time},
	))
	return s
}

// checkWriteCSV compares WriteCSV of every table of db with
// encoding/csv's Writer over the FormatValue rendering of its rows.
func checkWriteCSV(t *testing.T, db *relational.Database) {
	t.Helper()
	for _, tab := range db.Schema.Tables() {
		var want bytes.Buffer
		cw := csv.NewWriter(&want)
		cw.Write(tab.ColumnNames())
		for _, row := range db.Rows(tab.Name) {
			record := make([]string, len(row))
			for c, v := range row {
				record[c] = relational.FormatValue(v)
			}
			cw.Write(record)
		}
		cw.Flush()
		var got bytes.Buffer
		if err := db.WriteCSV(tab.Name, &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("table %s: WriteCSV\n%q\nencoding/csv\n%q", tab.Name, got.String(), want.String())
		}
	}
}

// stringCellsDB holds the given strings, one per row, in a String column
// and, shifted by one row, in a second one.
func stringCellsDB(cells []string) *relational.Database {
	db := relational.NewDatabase(cellSchema())
	prev := relational.Value(nil)
	for _, s := range cells {
		db.MustInsert("c", s, prev, nil, nil, nil, nil)
		prev = s
	}
	return db
}

// corpusInputs returns readCSVCases and the committed FuzzReadCSV seeds.
func corpusInputs(t *testing.T) []string {
	t.Helper()
	inputs := append([]string(nil), readCSVCases...)
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzReadCSV", "*"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no FuzzReadCSV corpus: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			if quoted, ok := strings.CutPrefix(line, "string("); ok {
				s, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
				if err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				inputs = append(inputs, s)
			}
		}
	}
	return inputs
}

// TestWriteCSVMatchesEncodingCSV pins WriteCSV's bytes to encoding/csv's
// Writer: on every line and every field of the ReadCSV cases and fuzz
// corpus taken as string cells, on the cases loaded into typed columns
// where they load, and on hostile cells of every type.
func TestWriteCSVMatchesEncodingCSV(t *testing.T) {
	for _, data := range corpusInputs(t) {
		cells := append(strings.Split(data, "\n"), data)
		cr := csv.NewReader(strings.NewReader(data))
		cr.FieldsPerRecord, cr.LazyQuotes = -1, true
		for {
			record, err := cr.Read()
			if err != nil {
				break
			}
			cells = append(cells, record...)
		}
		checkWriteCSV(t, stringCellsDB(cells))
		db := relational.NewDatabase(ingestSchema())
		if db.ReadCSV("t", strings.NewReader(data)) == nil {
			checkWriteCSV(t, db)
		}
	}

	strs := []string{
		"", "plain", "\tlead tab", " lead nbsp", "　lead ideographic space", " lead space",
		"trail space ", "trail tab\t", "lone\rcr", "cr\r\nlf", "\r", "\n", "\r\n", "lf\n",
		"\xff\xfe invalid", "\xa0 invalid lead", "emoji 🎵", "🎵", `\.`, `\`, `.`, `"`, `""`,
		`a"b`, `"quoted"`, ",", "a,b", "#comment", "NaN", "-0", "日本語",
	}
	zone := time.FixedZone("X", 5*3600+30*60)
	times := []time.Time{
		time.Unix(0, 0).UTC(),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Date(12345, 6, 7, 8, 9, 10, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2021, 1, 2, 3, 4, 5, 0, zone),
		time.Date(2021, 1, 2, 3, 4, 5, 0, time.FixedZone("W", -(9*3600+30*60+15))),
	}
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e21, 1e-7, -2.5e300, math.MaxFloat64, math.SmallestNonzeroFloat64}
	ints := []int64{0, -1, math.MinInt64, math.MaxInt64}
	db := relational.NewDatabase(cellSchema())
	for k := 0; k < 64; k++ {
		row := []relational.Value{
			strs[k%len(strs)], strs[(k*7+3)%len(strs)], ints[k%len(ints)],
			floats[k%len(floats)], k%3 == 0, times[k%len(times)],
		}
		if k%5 == 4 {
			row[k%len(row)] = nil
		}
		db.MustInsert("c", row...)
	}
	checkWriteCSV(t, db)
}

// paperDigests are the content hashes of the six tables of the running
// example at published size, as the encoding/csv based writer computed
// them: the durable caches are addressed by them, so a writer change
// must not move a single byte.
var paperDigests = map[string]string{
	"target.records":        "c2c6903d68bc3fdfd5c610274c4b04f3b813dc74c1b4784c7541bd4dca38a4e9",
	"target.tracks":         "e538762314083ab927912f1086997d363652ec978857035976080678f0f11ecd",
	"source.albums":         "662fc6570ebf3bccf3154af3125025ecdd5c90fae427caf13e90e8f44182e0cb",
	"source.songs":          "5d00cdc524e17cfec2fa55b2a6848aefada1fce65b23ac96bb49d1a49294e848",
	"source.artist_lists":   "835d689af7e8d0610d8a2c08c90e8e72790bb8bab8fb2410f3a41dedcbbf3b6d",
	"source.artist_credits": "0b10e5187bbac2012952ced216132a3483128293aff053c2a149f59cec7fc709",
}

func TestPaperContentHashesPinned(t *testing.T) {
	scn := scenario.MusicExample(scenario.PaperExampleConfig())
	seen := 0
	for _, db := range []*relational.Database{scn.Target, scn.Sources[0].DB} {
		for _, tab := range db.Schema.Tables() {
			key := db.Schema.Name + "." + tab.Name
			h, err := db.ContentHash(tab.Name)
			if err != nil {
				t.Fatal(err)
			}
			if want, ok := paperDigests[key]; !ok || h != want {
				t.Errorf("%s: content hash %s, want %s", key, h, want)
			}
			seen++
		}
	}
	if seen != len(paperDigests) {
		t.Errorf("hashed %d tables, want %d", seen, len(paperDigests))
	}
}

// FuzzWriteCSV compares WriteCSV with encoding/csv's Writer on arbitrary
// cells of every type.
func FuzzWriteCSV(f *testing.F) {
	f.Add("a", " b", int64(-1), math.Inf(-1), true, int64(0), 0)
	f.Add(`\.`, "x\r\ny\"", int64(math.MinInt64), math.Copysign(0, -1), false, int64(253402300800), -34200)
	f.Add("\xff", "", int64(7), math.NaN(), false, int64(-62167219200), 3600)
	f.Fuzz(func(t *testing.T, s, s2 string, i int64, x float64, b bool, sec int64, offset int) {
		db := relational.NewDatabase(cellSchema())
		ts := time.Unix(sec, 0).In(time.FixedZone("Z", offset%(18*3600)))
		db.MustInsert("c", s, s2, i, x, b, ts)
		db.MustInsert("c", s2, nil, nil, nil, nil, nil)
		db.MustInsert("c", nil, s, i, x, !b, ts.UTC())
		checkWriteCSV(t, db)
	})
}
