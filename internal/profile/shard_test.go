package profile

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"efes/internal/relational"
)

// The sharded exact kernels must be bit-identical to the single-pass
// kernels (and therefore to the seed row path) at every worker count.
// The suites below re-run the kernels_test.go property grid through
// FromVectorSharded/FromVectorCoercedSharded, then add multi-chunk
// columns (> relational.ChunkSize rows, and > ChunkSize distinct values
// for the dictionary-sharded string kernel) that the small grid cannot
// reach, plus mutation sequences that cross chunk boundaries.

var shardWorkerCounts = []int{1, 2, 3, 8}

func TestShardedBitIdenticalToRowPath(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, typ := range allTypes {
			for _, n := range []int{0, 1, 7, 400} {
				db := randomDB(t, rng, typ, n)
				values := db.MustColumn("t", "c")
				vec := db.Vector("t", "c")
				for _, workers := range shardWorkerCounts {
					ctx := typ.String() + "/raw/w" + strconv.Itoa(workers)
					statsEqual(t, ctx, Values("t", "c", typ, values), FromVectorSharded("t", "c", vec, workers))
					for _, dst := range allTypes {
						want, wantInc := oracleCoerced("t", "c", dst, values)
						got, gotInc := FromVectorCoercedSharded("t", "c", vec, dst, workers)
						cctx := typ.String() + "->" + dst.String() + "/w" + strconv.Itoa(workers)
						if wantInc != gotInc {
							t.Errorf("%s: incompatible: want %d, got %d", cctx, wantInc, gotInc)
						}
						statsEqual(t, cctx, want, got)
					}
				}
			}
		}
	}
}

// TestShardedMultiChunk crosses the chunk boundary: > ChunkSize rows, so
// the per-chunk partial merge actually runs. The single-pass kernels are
// the oracle here (they are themselves property-tested against the row
// path, and the row path over 66k adversarial values is slow).
func TestShardedMultiChunk(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk columns are slow to build")
	}
	const n = relational.ChunkSize + 1337
	rng := rand.New(rand.NewSource(42))
	for _, typ := range allTypes {
		db := randomDB(t, rng, typ, n)
		vec := db.Vector("t", "c")
		want := FromVector("t", "c", vec)
		for _, workers := range shardWorkerCounts {
			ctx := typ.String() + "/multichunk/w" + strconv.Itoa(workers)
			statsEqual(t, ctx, want, FromVectorSharded("t", "c", vec, workers))
		}
		// One coercion per source type keeps the runtime sane while
		// still exercising every sharded coerced kernel.
		var dst relational.Type
		switch typ {
		case relational.String:
			dst = relational.Integer // coercedFromStringSharded
		case relational.Integer:
			dst = relational.String // toStringSharded: the decimal kernel over the typed vector
		case relational.Float:
			dst = relational.Integer // floatToIntSharded
		case relational.Bool:
			dst = relational.String
		default:
			dst = relational.String // toStringSharded over RFC3339 renderings
		}
		wantC, wantInc := FromVectorCoerced("t", "c", vec, dst)
		for _, workers := range shardWorkerCounts {
			gotC, gotInc := FromVectorCoercedSharded("t", "c", vec, dst, workers)
			cctx := typ.String() + "->" + dst.String() + "/multichunk/w" + strconv.Itoa(workers)
			if wantInc != gotInc {
				t.Errorf("%s: incompatible: want %d, got %d", cctx, wantInc, gotInc)
			}
			statsEqual(t, cctx, wantC, gotC)
		}
	}
}

// TestShardedMultiChunkDictionary drives the dictionary-sharded string
// kernel across shard boundaries: an all-distinct Float column viewed as
// String renders more than ChunkSize dictionary entries, so the dict
// fan-out, the per-shard top-k survivor merge, and the disjoint runeLens
// writes all span multiple shards. An all-distinct Integer column of the
// same size drives the decimal kernel's per-chunk runs and tallies the
// same way.
func TestShardedMultiChunkDictionary(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk dictionaries are slow to build")
	}
	const n = relational.ChunkSize + 1000
	s := relational.NewSchema("prop")
	tab, err := relational.NewTable("t",
		relational.Column{Name: "i", Type: relational.Integer},
		relational.Column{Name: "f", Type: relational.Float})
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	if err := s.AddTable(tab); err != nil {
		t.Fatalf("AddTable: %v", err)
	}
	db := relational.NewDatabase(s)
	for i := 0; i < n; i++ {
		db.MustInsert("t", int64(i), float64(i)+0.25) // all distinct: > ChunkSize renderings
	}
	for _, col := range []string{"i", "f"} {
		vec := db.Vector("t", col)
		want := FromVector("t", col, vec)
		wantS, _ := FromVectorCoerced("t", col, vec, relational.String)
		for _, workers := range shardWorkerCounts {
			ctx := col + "/alldistinct/w" + strconv.Itoa(workers)
			statsEqual(t, ctx, want, FromVectorSharded("t", col, vec, workers))
			gotS, inc := FromVectorCoercedSharded("t", col, vec, relational.String, workers)
			if inc != 0 {
				t.Errorf("%s->string: unexpected incompatible %d", ctx, inc)
			}
			statsEqual(t, ctx+"->string", wantS, gotS)
		}
	}
}

// intColumn builds a one-column Integer instance holding values (nil is
// NULL).
func intColumn(t *testing.T, values []relational.Value) *relational.Database {
	t.Helper()
	s := relational.NewSchema("decimal")
	tab, err := relational.NewTable("t", relational.Column{Name: "c", Type: relational.Integer})
	if err != nil {
		t.Fatalf("NewTable: %v", err)
	}
	if err := s.AddTable(tab); err != nil {
		t.Fatalf("AddTable: %v", err)
	}
	db := relational.NewDatabase(s)
	for _, v := range values {
		db.MustInsert("t", v)
	}
	return db
}

// TestDecimalViewEdgeCases pins the decimal kernel (an Integer column's
// String view, profiled from the typed vector) against both the
// rendering-dictionary kernel of FromVectorCoerced and the row path, at
// every worker count, on the columns where a decimal's shape is easy to
// get wrong: sign-only patterns, a pattern count tie, no values at all,
// the int64 extremes, and a multi-chunk column whose NULLs straddle the
// chunk boundary.
func TestDecimalViewEdgeCases(t *testing.T) {
	ints := func(xs ...int64) []relational.Value {
		out := make([]relational.Value, len(xs))
		for i, x := range xs {
			out[i] = x
		}
		return out
	}
	// Random signs and lengths of 1 to 19 digits, mostly distinct, with
	// scattered NULLs and a NULL run across the first chunk boundary.
	rng := rand.New(rand.NewSource(15))
	large := make([]relational.Value, relational.ChunkSize+9000)
	for i := range large {
		if rng.Intn(20) == 0 || (i >= relational.ChunkSize-3 && i < relational.ChunkSize+3) {
			continue
		}
		x := rng.Int63() >> rng.Intn(63)
		if rng.Intn(3) == 0 {
			x = -x
		}
		large[i] = x
	}
	cases := []struct {
		name   string
		values []relational.Value
	}{
		{"all-negative", ints(-1, -42, -42, -1000, -7, -99999)},
		{"sign-tie", ints(-3, 4, -30, 40, 0, -5)},
		{"all-null", make([]relational.Value, 5)},
		{"single-row", ints(-120000)},
		{"extremes", ints(math.MinInt64, math.MaxInt64, 0, math.MinInt64, 0, math.MinInt64)},
		{"multi-chunk", large},
	}
	for _, tc := range cases {
		db := intColumn(t, tc.values)
		vec := db.Vector("t", "c")
		want, _ := oracleCoerced("t", "c", relational.String, tc.values)
		single, _ := FromVectorCoerced("t", "c", vec, relational.String)
		statsEqual(t, tc.name+"/single-pass", want, single)
		for _, workers := range shardWorkerCounts {
			got, inc := FromVectorCoercedSharded("t", "c", vec, relational.String, workers)
			ctx := tc.name + "/w" + strconv.Itoa(workers)
			if inc != 0 {
				t.Errorf("%s: unexpected incompatible %d", ctx, inc)
			}
			statsEqual(t, ctx, want, got)
		}
	}
}

// TestShardedAfterMutations mutates a multi-chunk column through the
// incremental maintenance path — including deletes that shift rows
// across the chunk boundary — applies the same changes to an independent
// model of the column, and requires the store to match the model and the
// sharded kernels to agree with the row path on it bit for bit.
func TestShardedAfterMutations(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chunk columns are slow to build")
	}
	rng := rand.New(rand.NewSource(99))
	for _, typ := range []relational.Type{relational.Integer, relational.String} {
		db, model := randomDBModel(t, rng, typ, relational.ChunkSize+300)
		for step := 0; step < 25; step++ {
			n := db.NumRows("t")
			switch op := rng.Intn(4); {
			case op == 0 || n == 0:
				v := randomValue(rng, typ)
				db.MustInsert("t", v)
				model = append(model, v)
			case op == 1:
				i, v := rng.Intn(n), randomValue(rng, typ)
				if err := db.Update("t", i, "c", v); err != nil {
					t.Fatalf("Update: %v", err)
				}
				model[i] = v
			case op == 2:
				i := rng.Intn(n)
				db.Delete("t", i)
				model = deleteFromModel(model, i)
			default:
				i := relational.ChunkSize - 2 + rng.Intn(5) // straddle the boundary
				db.Delete("t", i)
				model = deleteFromModel(model, i)
			}
		}
		checkModel(t, typ.String()+"/mutated", db, model)
		vec := db.Vector("t", "c")
		want := Values("t", "c", typ, model)
		for _, workers := range shardWorkerCounts {
			ctx := typ.String() + "/mutated/w" + strconv.Itoa(workers)
			statsEqual(t, ctx, want, FromVectorSharded("t", "c", vec, workers))
		}
	}
}
