package relational

import (
	"reflect"
	"testing"
)

func stringTableDB(t *testing.T) *Database {
	t.Helper()
	s := NewSchema("cv")
	tab, err := NewTable("songs",
		Column{Name: "title", Type: String},
		Column{Name: "plays", Type: Integer},
	)
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	if err := s.AddTable(tab); err != nil {
		t.Fatalf("AddTable: %v", err)
	}
	db := NewDatabase(s)
	db.MustInsert("songs", "a", int64(1))
	db.MustInsert("songs", "b", int64(2))
	db.MustInsert("songs", "a", nil)
	db.MustInsert("songs", nil, int64(2))
	return db
}

func TestVectorDictionaryEncoding(t *testing.T) {
	db := stringTableDB(t)
	vec := db.Vector("songs", "title")
	if vec == nil {
		t.Fatal("Vector returned nil")
	}
	if vec.Type() != String || vec.Len() != 4 || vec.NullCount() != 1 {
		t.Fatalf("vector shape: type=%v len=%d nulls=%d", vec.Type(), vec.Len(), vec.NullCount())
	}
	if got := vec.Dict(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("dict = %v", got)
	}
	if got := vec.Counts(); !reflect.DeepEqual(got, []int{2, 1}) {
		t.Fatalf("counts = %v", got)
	}
	if got := vec.Codes(); !reflect.DeepEqual(got, []int32{0, 1, 0, 0}) {
		t.Fatalf("codes = %v", got)
	}
	if vec.Null(2) || !vec.Null(3) {
		t.Fatalf("null bitmap: row2=%v row3=%v", vec.Null(2), vec.Null(3))
	}
	if v := vec.Value(1); v != "b" {
		t.Fatalf("Value(1) = %v", v)
	}
	if v := vec.Value(3); v != nil {
		t.Fatalf("Value(3) = %v, want nil", v)
	}
	if got := vec.SortedDistinct(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("sorted distinct = %v", got)
	}
}

func TestVectorIncrementalMaintenance(t *testing.T) {
	db := stringTableDB(t)
	vec := db.Vector("songs", "title")
	db.MustInsert("songs", "c", int64(3))
	if vec.Len() != 5 || vec.Value(4) != "c" {
		t.Fatalf("after insert: len=%d last=%v", vec.Len(), vec.Value(4))
	}
	if err := db.Update("songs", 0, "title", "b"); err != nil {
		t.Fatalf("Update: %v", err)
	}
	// "a" lost one occurrence, "b" gained one.
	if got := vec.Counts(); !reflect.DeepEqual(got, []int{1, 2, 1}) {
		t.Fatalf("counts after update = %v", got)
	}
	db.Delete("songs", 2) // drops the remaining "a": entry goes dead
	if got := vec.Counts(); !reflect.DeepEqual(got, []int{0, 2, 1}) {
		t.Fatalf("counts after delete = %v", got)
	}
	// Dead entries disappear from the distinct view; the memo was
	// invalidated by every mutation above.
	if got := vec.SortedDistinct(); !reflect.DeepEqual(got, []string{"b", "c"}) {
		t.Fatalf("sorted distinct after mutations = %v", got)
	}
	// The vector holds exactly the surviving titles, and the row view
	// derived from it agrees.
	want := []Value{"b", "b", nil, "c"}
	rows := db.Rows("songs")
	if vec.Len() != len(want) || len(rows) != len(want) {
		t.Fatalf("lengths: vector %d, rows %d, want %d", vec.Len(), len(rows), len(want))
	}
	for i, w := range want {
		if vec.Value(i) != w || rows[i][0] != w {
			t.Errorf("row %d: vector %v, row view %v, want %v", i, vec.Value(i), rows[i][0], w)
		}
	}
}

func TestVectorLazyMaterialization(t *testing.T) {
	db := stringTableDB(t)
	// Mutations before the first vector access are reflected in it.
	db.MustInsert("songs", "z", nil)
	db.Delete("songs", 0)
	vec := db.Vector("songs", "plays")
	if vec.Len() != db.NumRows("songs") {
		t.Fatalf("materialized length %d, rows %d", vec.Len(), db.NumRows("songs"))
	}
	if got := vec.Ints(); got[0] != 2 { // first surviving row is ("b", 2)
		t.Fatalf("ints = %v", got)
	}
}

func TestVectorUnknownAndClone(t *testing.T) {
	db := stringTableDB(t)
	if db.Vector("nope", "title") != nil || db.Vector("songs", "nope") != nil {
		t.Fatal("Vector must return nil for unknown table/column")
	}
	if db.Vectors("nope") != nil {
		t.Fatal("Vectors must return nil for unknown table")
	}
	vec := db.Vector("songs", "title")
	cl := db.Clone()
	// The clone copies the vectors; mutating the clone must not disturb
	// the original's.
	cl.MustInsert("songs", "q", int64(9))
	if got := db.Vector("songs", "title"); got != vec || got.Len() != 4 {
		t.Fatalf("original vector disturbed by clone mutation: len=%d", got.Len())
	}
	if cv := cl.Vector("songs", "title"); cv.Len() != 5 {
		t.Fatalf("clone vector len = %d", cv.Len())
	}
}

func TestBitmap(t *testing.T) {
	var b Bitmap
	if b.Get(0) || b.Get(1000) {
		t.Fatal("empty bitmap must read unset")
	}
	b.set(0)
	b.set(63)
	b.set(64)
	b.set(200)
	for _, i := range []int{0, 63, 64, 200} {
		if !b.Get(i) {
			t.Errorf("bit %d unset", i)
		}
	}
	if b.Get(1) || b.Get(199) || b.Get(201) {
		t.Error("unexpected bits set")
	}
	b.clear(64)
	if b.Get(64) || !b.Get(63) {
		t.Error("clear(64) wrong")
	}
	b.clear(100000) // out of range: no-op
}
