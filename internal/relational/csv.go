package relational

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode"
	"unicode/utf8"
)

// csvFlushBytes is the size at which WriteCSV hands its rendered bytes to
// the underlying writer.
const csvFlushBytes = 64 << 10

// WriteCSV encodes one table as CSV: a header line with the column names
// followed by one line per row. NULL is encoded as the empty field. The
// bytes are exactly those of encoding/csv's Writer with its defaults
// (comma separator, "\n" line ends, minimal quoting). The cells are
// rendered straight from the column vectors, exactly as FormatValue
// renders them, into one reused buffer: integers, floats, booleans and
// times are appended in place, and each String dictionary entry is
// quoted once, not once per row. The row view is not built.
func (db *Database) WriteCSV(table string, w io.Writer) error {
	t := db.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("relational: unknown table %s", table)
	}
	td := db.table(t)
	buf := AppendCSVRecord(make([]byte, 0, csvFlushBytes+4096), t.ColumnNames())
	dicts := make([][]string, len(td.vecs))
	for c, vec := range td.vecs {
		if vec.typ == String {
			dicts[c] = csvDict(vec.dict)
		}
	}
	for i := 0; i < td.n; i++ {
		for c, vec := range td.vecs {
			if c > 0 {
				buf = append(buf, ',')
			}
			buf = vec.appendCSV(buf, i, dicts[c])
		}
		buf = append(buf, '\n')
		if len(buf) >= csvFlushBytes {
			if _, err := w.Write(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) == 0 {
		return nil
	}
	_, err := w.Write(buf)
	return err
}

// AppendCSVRecord appends one CSV record, its fields quoted as
// encoding/csv's Writer quotes them and a "\n" line end, to dst.
func AppendCSVRecord(dst []byte, fields []string) []byte {
	for c, f := range fields {
		if c > 0 {
			dst = append(dst, ',')
		}
		dst = appendCSVField(dst, f)
	}
	return append(dst, '\n')
}

// csvNeedsQuotes reports whether encoding/csv's Writer quotes a field:
// never the empty field, always `\.` (a Postgres end-of-data marker), and
// otherwise a field holding a comma, a quote, "\r" or "\n", or starting
// with a space in the sense of unicode.IsSpace.
func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` {
		return true
	}
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// appendCSVField appends one field as encoding/csv's Writer writes it: in
// quotes where csvNeedsQuotes says so, with each quote doubled and "\r"
// and "\n" kept verbatim.
func appendCSVField(dst []byte, s string) []byte {
	if !csvNeedsQuotes(s) {
		return append(dst, s...)
	}
	dst = append(dst, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		dst = append(dst, s[:i+1]...)
		dst = append(dst, '"')
		s = s[i+1:]
	}
	dst = append(dst, s...)
	return append(dst, '"')
}

// csvDict renders each entry of a String column's dictionary as its CSV
// field. An entry that needs no quoting is its own rendering, so the
// dictionary itself is returned when none does.
func csvDict(dict []string) []string {
	var out []string
	for c, s := range dict {
		if !csvNeedsQuotes(s) {
			continue
		}
		if out == nil {
			out = make([]string, len(dict))
			copy(out, dict)
		}
		out[c] = string(appendCSVField(nil, s))
	}
	if out == nil {
		return dict
	}
	return out
}

// appendCSV appends the CSV field of row i, rendered exactly as
// FormatValue(v.Value(i)) and quoted as appendCSVField quotes it; dict is
// csvDict of a String column's dictionary. The other types never need
// quoting: integers, floats and booleans render to digits, signs, '.',
// 'e', "NaN", "Inf", "true" or "false", and RFC 3339 times to digits,
// '-', ':', 'T', 'Z' and '+'.
func (v *ColumnVector) appendCSV(dst []byte, i int, dict []string) []byte {
	if v.nulls.Get(i) {
		return dst
	}
	switch v.typ {
	case String:
		return append(dst, dict[v.codes[i]]...)
	case Integer:
		return strconv.AppendInt(dst, v.ints[i], 10)
	case Float:
		return strconv.AppendFloat(dst, v.floats[i], 'g', -1, 64)
	case Bool:
		return strconv.AppendBool(dst, v.bools[i])
	case Time:
		return v.times[i].AppendFormat(dst, time.RFC3339)
	}
	return dst
}

// csvBatchRecords is the number of records the CSV reader hands to the
// appenders at a time: large enough that the hand-off costs nothing
// against the parsing, small enough that a batch stays in cache.
const csvBatchRecords = 1024

// csvAppendersPerProc bounds ReadCSV's appender goroutines per GOMAXPROCS.
// One appender per column lets the scheduler balance a table whose
// columns cost unevenly (a large string dictionary next to a few
// integers) better than one appender per processor does; the bound keeps
// a wide schema, which efesd accepts from its clients, from setting the
// goroutine count.
const csvAppendersPerProc = 4

// newCSVAppenders returns the appenders ReadCSV runs, one goroutine
// each, for a table of width columns: one per column, at most
// csvAppendersPerProc per GOMAXPROCS, and at least one. Past the bound
// the columns are dealt out round-robin.
func newCSVAppenders(width int) []*csvAppender {
	apps := make([]*csvAppender, max(1, min(width, csvAppendersPerProc*runtime.GOMAXPROCS(0))))
	// Each appender's inbox holds one batch, so the reader can run a
	// batch ahead of the slowest appender and the others rarely wait.
	for a := range apps {
		apps[a] = &csvAppender{in: make(chan *csvBatch, 1)}
	}
	for c := 0; c < width; c++ {
		app := apps[c%len(apps)]
		app.cols = append(app.cols, c)
	}
	return apps
}

// csvBatch is a run of decoded CSV records on their way from the reader
// to the appenders. fields holds the records row-major; lines holds the
// 1-based input line of each field, for error messages. seq numbers the
// batches of one load in input order, and pending counts the appenders
// that have yet to release the batch. hint, set on the first batch only,
// estimates the records of the whole load (0 when unknown).
type csvBatch struct {
	fields  []string
	lines   []int
	seq     int
	hint    int
	pending atomic.Int32
}

// csvAppender is one appender stage of ReadCSV: it owns the staged
// vectors of the columns in cols (ascending) and receives every batch on
// in. err is the first of its fields, in input order, that did not
// parse, at record rec of batch seq in column col; after it the appender
// only releases the batches it receives.
type csvAppender struct {
	cols          []int
	in            chan *csvBatch
	err           error
	seq, rec, col int
}

// before reports whether a's error comes before b's in input order.
func (a *csvAppender) before(b *csvAppender) bool {
	if a.seq != b.seq {
		return a.seq < b.seq
	}
	if a.rec != b.rec {
		return a.rec < b.rec
	}
	return a.col < b.col
}

// ReadCSV decodes rows for an existing table from CSV produced by
// WriteCSV. The header must match the table's columns; empty fields become
// NULL and the remaining fields are parsed according to the column types.
// The load is atomic: rows are staged and committed only when the whole
// input parses, so a malformed line mid-file leaves the table untouched.
// Parse errors name the 1-based input line and the column of the first
// malformed field in input order.
//
// Decoding runs column-parallel: the calling goroutine runs the CSV
// reader and hands every batch of records to each appender goroutine
// (see newCSVAppenders). Each appender owns a disjoint set of columns and
// parses their fields into fresh column vectors; a batch returns to the
// reader's free list once the last appender has released it. The
// appenders are joined before ReadCSV returns, on success and on error
// alike.
func (db *Database) ReadCSV(table string, r io.Reader) error {
	t := db.Schema.Table(table)
	if t == nil {
		return fmt.Errorf("relational: unknown table %s", table)
	}
	width := len(t.Columns)
	// The input's length, where r knows it (a strings or bytes Reader, a
	// bytes.Buffer), taken before the CSV reader buffers any of it.
	size := int64(-1)
	if l, ok := r.(interface{ Len() int }); ok {
		size = int64(l.Len())
	}
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = width
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return fmt.Errorf("relational: read csv for %s: %w", table, err)
	}
	// The reader enforces the width on every record but a table without
	// columns, for which FieldsPerRecord 0 means "whatever the header has".
	if len(header) != width {
		return fmt.Errorf("relational: csv header mismatch for %s: got %d columns, want %d", table, len(header), width)
	}
	for i, name := range header {
		if name != t.Columns[i].Name {
			return fmt.Errorf("relational: csv header mismatch for %s: got %q, want %q", table, name, t.Columns[i].Name)
		}
	}

	staged := make([]*ColumnVector, width)
	for i, c := range t.Columns {
		staged[i] = newColumnVector(c.Type)
	}
	apps := newCSVAppenders(width)
	// free recycles released batches to the reader; the reader never
	// waits on it, so at most three batches ever exist.
	free := make(chan *csvBatch, 2)
	failed := make(chan struct{})
	var failOnce sync.Once
	var wg sync.WaitGroup
	for _, app := range apps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range app.in {
				for _, c := range app.cols {
					staged[c].reserve(b.hint)
				}
				if app.err == nil && !app.appendBatch(t, staged, b) {
					failOnce.Do(func() { close(failed) })
				}
				if b.pending.Add(-1) == 0 {
					select {
					case free <- b:
					default:
					}
				}
			}
		}()
	}
	rows, hint, readErr := feedCSV(cr, width, size, apps, free, failed)
	for _, app := range apps {
		close(app.in)
	}
	wg.Wait()
	var first *csvAppender
	for _, app := range apps {
		if app.err != nil && (first == nil || app.before(first)) {
			first = app
		}
	}
	if first != nil {
		return fmt.Errorf("relational: csv for %s: %w", table, first.err)
	}
	if readErr != nil {
		return fmt.Errorf("relational: read csv for %s: %w", table, readErr)
	}

	// The estimate rests on the first batch alone, so records longer than
	// that batch's make it overshoot. The staged vectors join the table as
	// they are, so room reserved for records that never came is given
	// back here rather than held for the table's lifetime.
	if hint > rows+rows/8 {
		for _, vec := range staged {
			vec.clip()
		}
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
// and hands each batch to every appender, until the input ends, the
// reader fails, or an appender reports a parse error by closing failed.
// It looks at failed only between batches, so every appender sees every
// batch any appender has seen, and none can miss a field that precedes
// the first reported error. When size, the input's length in bytes, is
// known and the first batch is full, the batch carries an estimate of
// the load's records, extrapolated from the bytes the batch took, so the
// appenders size their vectors once instead of growing them by copying.
// Every record takes at least width bytes (its separators and line end),
// so the estimate never exceeds the records the input could hold, and
// the reservation never exceeds what loading the longest such input
// would allocate anyway. It returns the number of records handed out,
// the estimate (0 when none was made) and the reader's error, io.EOF
// excepted.
func feedCSV(cr *csv.Reader, width int, size int64, apps []*csvAppender, free chan *csvBatch, failed <-chan struct{}) (rows, hint int, err error) {
	start := cr.InputOffset()
	for seq := 0; ; seq++ {
		select {
		case <-failed:
			return rows, hint, nil
		default:
		}
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
		b.seq, b.hint = seq, 0
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
		if seq == 0 && err == nil && size > 0 {
			if used := cr.InputOffset() - start; used > 0 {
				hint = int(int64(csvBatchRecords) * (size - start) / used)
				b.hint = hint
			}
		}
		if len(b.fields) > 0 {
			b.pending.Store(int32(len(apps)))
			for _, app := range apps {
				app.in <- b
			}
			rows += len(b.fields) / width
		}
		if err == io.EOF {
			return rows, hint, nil
		}
		if err != nil {
			return rows, hint, err
		}
	}
}

// appendBatch parses the appender's fields of one batch into the staged
// vectors, record by record, and reports whether they all parsed. The
// first field that does not parse becomes the appender's error.
func (app *csvAppender) appendBatch(t *Table, staged []*ColumnVector, b *csvBatch) bool {
	width := len(staged)
	for k := 0; k < len(b.fields); k += width {
		for _, c := range app.cols {
			if err := staged[c].appendField(b.fields[k+c]); err != nil {
				app.err = fmt.Errorf("line %d, column %s: %w", b.lines[k+c], t.Columns[c].Name, err)
				app.seq, app.rec, app.col = b.seq, k/width, c
				return false
			}
		}
	}
	return true
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
