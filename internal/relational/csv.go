package relational

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// WriteCSV encodes one table as CSV: a header line with the column names
// followed by one line per row. NULL is encoded as the empty field. The
// cells are rendered straight from the column vectors, exactly as
// FormatValue renders them; the row view is not built.
func (db *Database) WriteCSV(table string, w io.Writer) error {
	t := db.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("relational: unknown table %s", table)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.ColumnNames()); err != nil {
		return err
	}
	td := db.table(t)
	record := make([]string, len(t.Columns))
	for i := 0; i < td.n; i++ {
		for c, vec := range td.vecs {
			record[c] = vec.format(i)
		}
		if err := cw.Write(record); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// csvBatchRecords is the number of records the CSV reader hands to the
// column appender at a time: large enough that the hand-off costs
// nothing against the parsing, small enough that a batch stays in cache.
const csvBatchRecords = 1024

// csvBatch is a run of decoded CSV records on their way from the reader
// to the appender. fields holds the records row-major; lines holds the
// 1-based input line of each field, for error messages.
type csvBatch struct {
	fields []string
	lines  []int
}

// ReadCSV decodes rows for an existing table from CSV produced by
// WriteCSV. The header must match the table's columns; empty fields become
// NULL and the remaining fields are parsed according to the column types.
// The load is atomic: rows are staged and committed only when the whole
// input parses, so a malformed line mid-file leaves the table untouched.
// Parse errors name the 1-based input line and the column.
//
// Decoding runs as a two-stage pipeline: the calling goroutine runs the
// CSV reader and hands batches of records to one appender goroutine,
// which parses each field into fresh column vectors; the appender is
// joined before ReadCSV returns, on success and on error alike.
func (db *Database) ReadCSV(table string, r io.Reader) error {
	t := db.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("relational: unknown table %s", table)
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(t.Columns)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("relational: read csv for %s: %w", table, err)
	}
	for i, name := range header {
		if name != t.Columns[i].Name {
			return fmt.Errorf("relational: csv header mismatch for %s: got %q, want %q", table, name, t.Columns[i].Name)
		}
	}

	staged := make([]*ColumnVector, len(t.Columns))
	for i, c := range t.Columns {
		staged[i] = newColumnVector(c.Type)
	}
	rows := 0
	full := make(chan *csvBatch)
	// free recycles processed batches to the reader; the reader never
	// waits on it, so at most three batches ever exist.
	free := make(chan *csvBatch, 2)
	failed := make(chan struct{})
	var parseErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := range full {
			if parseErr == nil {
				var n int
				n, parseErr = appendBatch(t, staged, b)
				rows += n
				if parseErr != nil {
					close(failed)
				}
			}
			select {
			case free <- b:
			default:
			}
		}
	}()
	readErr := feedCSV(cr, len(t.Columns), full, free, failed)
	close(full)
	wg.Wait()
	if parseErr != nil {
		return fmt.Errorf("relational: csv for %s: %w", table, parseErr)
	}
	if readErr != nil {
		return fmt.Errorf("relational: read csv for %s: %w", table, readErr)
	}

	td := db.mutable(t)
	from := td.n
	for i, vec := range td.vecs {
		vec.appendVector(staged[i])
		vec.invalidate()
	}
	td.n += rows
	td.viewMu.Lock()
	if td.view != nil {
		td.view = append(td.view, td.rows(from, td.n)...)
	}
	td.viewMu.Unlock()
	db.invalidateHash(table)
	return nil
}

// feedCSV is the reader stage of ReadCSV: it decodes records into batches
// and sends them on full until the input ends, the reader fails, or the
// appender reports a parse error by closing failed. It returns the
// reader's error, io.EOF excepted.
func feedCSV(cr *csv.Reader, width int, full chan<- *csvBatch, free <-chan *csvBatch, failed <-chan struct{}) error {
	for {
		var b *csvBatch
		select {
		case b = <-free:
			b.fields, b.lines = b.fields[:0], b.lines[:0]
		default:
			b = &csvBatch{
				fields: make([]string, 0, csvBatchRecords*width),
				lines:  make([]int, 0, csvBatchRecords*width),
			}
		}
		var err error
		for len(b.fields) < csvBatchRecords*width {
			var record []string
			if record, err = cr.Read(); err != nil {
				break
			}
			b.fields = append(b.fields, record...)
			for i := range record {
				line, _ := cr.FieldPos(i)
				b.lines = append(b.lines, line)
			}
		}
		if len(b.fields) > 0 {
			select {
			case full <- b:
			case <-failed:
				return nil
			}
		}
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// appendBatch is the appender stage of ReadCSV: it parses the fields of
// one batch into the staged vectors and returns the number of records
// appended. The first field, in input order, that does not parse stops
// the load with an error naming its input line and column.
func appendBatch(t *Table, staged []*ColumnVector, b *csvBatch) (int, error) {
	width := len(staged)
	for k := 0; k < len(b.fields); k += width {
		for c, vec := range staged {
			if err := vec.appendField(b.fields[k+c]); err != nil {
				return 0, fmt.Errorf("line %d, column %s: %w", b.lines[k+c], t.Columns[c].Name, err)
			}
		}
	}
	return len(b.fields) / width, nil
}

// SaveDir writes the whole database to a directory: schema.txt describing
// the schema (informational) and one <table>.csv per table.
func (db *Database) SaveDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "schema.txt"), []byte(db.Schema.String()), 0o644); err != nil {
		return err
	}
	for _, t := range db.Schema.Tables() {
		f, err := os.Create(filepath.Join(dir, t.Name+".csv"))
		if err != nil {
			return err
		}
		if err := db.WriteCSV(t.Name, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// LoadDir reads rows for every table of the schema from <table>.csv files
// in dir. Missing files leave the table empty.
func (db *Database) LoadDir(dir string) error {
	for _, t := range db.Schema.Tables() {
		path := filepath.Join(dir, t.Name+".csv")
		f, err := os.Open(path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return err
		}
		if err := db.ReadCSV(t.Name, f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// ParseSchemaText parses the textual schema format emitted by
// Schema.String, so that databases saved with SaveDir can be reloaded
// without Go code. The format is line-oriented:
//
//	schema NAME
//	  table NAME(col type, col type, ...)
//	  PRIMARY KEY (table.col,col)
//	  UNIQUE (table.col)
//	  NOT NULL (table.col)
//	  FOREIGN KEY (table.col) REFERENCES table.col
func ParseSchemaText(text string) (*Schema, error) {
	var s *Schema
	var deferred []string // constraint lines, applied after all tables
	for lineno, raw := range strings.Split(text, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" {
			continue
		}
		switch {
		case strings.HasPrefix(line, "schema "):
			s = NewSchema(strings.TrimSpace(strings.TrimPrefix(line, "schema ")))
		case strings.HasPrefix(line, "table "):
			if s == nil {
				return nil, fmt.Errorf("relational: line %d: table before schema", lineno+1)
			}
			if err := parseTableLine(s, line); err != nil {
				return nil, fmt.Errorf("relational: line %d: %w", lineno+1, err)
			}
		default:
			deferred = append(deferred, line)
		}
	}
	if s == nil {
		return nil, fmt.Errorf("relational: no schema declaration found")
	}
	for _, line := range deferred {
		c, err := parseConstraintLine(line)
		if err != nil {
			return nil, err
		}
		if err := s.AddConstraint(c); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func parseTableLine(s *Schema, line string) error {
	rest := strings.TrimPrefix(line, "table ")
	open := strings.Index(rest, "(")
	if open < 0 || !strings.HasSuffix(rest, ")") {
		return fmt.Errorf("malformed table line %q", line)
	}
	name := strings.TrimSpace(rest[:open])
	body := rest[open+1 : len(rest)-1]
	var cols []Column
	for _, part := range strings.Split(body, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Fields(part)
		if len(fields) != 2 {
			return fmt.Errorf("malformed column %q in table %s", part, name)
		}
		typ, err := ParseType(fields[1])
		if err != nil {
			return err
		}
		cols = append(cols, Column{Name: fields[0], Type: typ})
	}
	t, err := NewTable(name, cols...)
	if err != nil {
		return err
	}
	return s.AddTable(t)
}

func parseConstraintLine(line string) (Constraint, error) {
	parseRefs := func(body string) (string, []string, error) {
		dot := strings.Index(body, ".")
		if dot < 0 {
			return "", nil, fmt.Errorf("relational: malformed column list %q", body)
		}
		table := body[:dot]
		cols := strings.Split(body[dot+1:], ",")
		for i := range cols {
			cols[i] = strings.TrimSpace(cols[i])
		}
		return table, cols, nil
	}
	inner := func(s, prefix string) (string, bool) {
		if !strings.HasPrefix(s, prefix+" (") {
			return "", false
		}
		rest := strings.TrimPrefix(s, prefix+" (")
		end := strings.Index(rest, ")")
		if end < 0 {
			return "", false
		}
		return rest[:end], true
	}
	switch {
	case strings.HasPrefix(line, "PRIMARY KEY"):
		body, ok := inner(line, "PRIMARY KEY")
		if !ok {
			return nil, fmt.Errorf("relational: malformed constraint %q", line)
		}
		table, cols, err := parseRefs(body)
		if err != nil {
			return nil, err
		}
		return PrimaryKey{Table: table, Columns: cols}, nil
	case strings.HasPrefix(line, "UNIQUE"):
		body, ok := inner(line, "UNIQUE")
		if !ok {
			return nil, fmt.Errorf("relational: malformed constraint %q", line)
		}
		table, cols, err := parseRefs(body)
		if err != nil {
			return nil, err
		}
		return UniqueConstraint{Table: table, Columns: cols}, nil
	case strings.HasPrefix(line, "NOT NULL"):
		body, ok := inner(line, "NOT NULL")
		if !ok {
			return nil, fmt.Errorf("relational: malformed constraint %q", line)
		}
		table, cols, err := parseRefs(body)
		if err != nil {
			return nil, err
		}
		return NotNullConstraint{Table: table, Column: cols[0]}, nil
	case strings.HasPrefix(line, "FOREIGN KEY"):
		body, ok := inner(line, "FOREIGN KEY")
		if !ok {
			return nil, fmt.Errorf("relational: malformed constraint %q", line)
		}
		table, cols, err := parseRefs(body)
		if err != nil {
			return nil, err
		}
		refIdx := strings.Index(line, "REFERENCES ")
		if refIdx < 0 {
			return nil, fmt.Errorf("relational: malformed foreign key %q", line)
		}
		refTable, refCols, err := parseRefs(strings.TrimSpace(line[refIdx+len("REFERENCES "):]))
		if err != nil {
			return nil, err
		}
		return ForeignKey{Table: table, Columns: cols, RefTable: refTable, RefColumns: refCols}, nil
	default:
		return nil, fmt.Errorf("relational: unrecognized constraint line %q", line)
	}
}
