package profile_test

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"strconv"
	"testing"

	"efes/internal/profile"
	"efes/internal/relational"
	"efes/internal/scenario"
)

// negativeColumnDB builds a one-column Integer instance that the
// scenario generators never produce: negative and non-negative values in
// unequal shares, NULLs, and both int64 extremes.
func negativeColumnDB(t *testing.T) *relational.Database {
	t.Helper()
	s := relational.NewSchema("neg")
	tab, err := relational.NewTable("t", relational.Column{Name: "c", Type: relational.Integer})
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	if err := s.AddTable(tab); err != nil {
		t.Fatalf("AddTable: %v", err)
	}
	db := relational.NewDatabase(s)
	for i := 0; i < 5000; i++ {
		switch {
		case i%17 == 0:
			db.MustInsert("t", nil)
		case i == 1:
			db.MustInsert("t", int64(math.MinInt64))
		case i == 2:
			db.MustInsert("t", int64(math.MaxInt64))
		default:
			db.MustInsert("t", int64(i*7919%20011-12000))
		}
	}
	return db
}

// TestDurableProfileBytesPinned pins the sha256 of the durable envelope
// bytes (what the Profiler stores under an efes-stats-v2 key) for the raw
// and String views of two Integer columns, through the single-pass and
// the sharded kernels. Stored entries are served across restarts without
// recomputation, so a kernel change that moves any of these bytes must
// bump statsFormatVersion instead of changing this table.
func TestDurableProfileBytesPinned(t *testing.T) {
	songs := scenario.MusicExample(scenario.LargeExampleConfig()).Sources[0].DB
	neg := negativeColumnDB(t)
	cases := []struct {
		name          string
		db            *relational.Database
		table, column string
		typ           relational.Type
		want          string
	}{
		{"songs.length/raw", songs, "songs", "length", relational.Integer,
			"dfccc4a1485ae1c2afe943d975d03f21649bda36c9a77e71c8f5587f40a21b3a"},
		{"songs.length/string", songs, "songs", "length", relational.String,
			"8f7d2daee9dc64e0ff5b88ee23c03369ca1eaf8a34249c9f7e0c368318d359c0"},
		{"negative/raw", neg, "t", "c", relational.Integer,
			"2cae55d0119e673d04c20b1a13fb0f00137548ae633bb71a37ac0d34ec18f8ca"},
		{"negative/string", neg, "t", "c", relational.String,
			"1b4680c475acd6cd71f74156f4d99211488e4766542af9ab86a5cf254641caac"},
	}
	for _, tc := range cases {
		vec := tc.db.Vector(tc.table, tc.column)
		digest := func(ctx string, cs *profile.ColumnStats, incompatible int) {
			t.Helper()
			data, err := profile.EnvelopeJSON(cs, incompatible)
			if err != nil {
				t.Fatalf("%s: marshal: %v", ctx, err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != tc.want {
				t.Errorf("%s: envelope sha256 %s, want %s", ctx, got, tc.want)
			}
		}
		cs, inc := profile.FromVectorCoerced(tc.table, tc.column, vec, tc.typ)
		digest(tc.name+"/single-pass", cs, inc)
		for _, workers := range []int{1, 2, 8} {
			cs, inc := profile.FromVectorCoercedSharded(tc.table, tc.column, vec, tc.typ, workers)
			digest(tc.name+"/w"+strconv.Itoa(workers), cs, inc)
		}
	}
}
