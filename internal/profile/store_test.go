package profile

// Tests for the durable read-through store hook: bit-identical
// round-trips through the JSON envelope, warm starts across Profiler
// instances (the restart story), content-address invalidation on data
// mutation, and the errors-never-persisted contract.

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"

	"efes/internal/faultinject"
	"efes/internal/relational"
)

// memStore is an in-memory Store for tests.
type memStore struct {
	mu   sync.Mutex
	m    map[string][]byte
	puts int
}

func newMemStore() *memStore { return &memStore{m: make(map[string][]byte)} }

func (s *memStore) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.m[key]
	return d, ok
}

func (s *memStore) Put(key string, data []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m[key] = append([]byte(nil), data...)
	s.puts++
}

func (s *memStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.m)
}

func TestStoreWarmStartServesWithoutRecompute(t *testing.T) {
	db := profilerDB(t)
	store := newMemStore()

	p1 := NewProfiler(1).SetStore(store)
	cold, err := p1.Column(db, "songs", "title")
	if err != nil {
		t.Fatal(err)
	}
	if dh, comp := p1.DiskCounters(); dh != 0 || comp != 1 {
		t.Errorf("cold counters = %d disk hits / %d computes, want 0/1", dh, comp)
	}
	if store.len() != 1 {
		t.Fatalf("store entries = %d, want 1", store.len())
	}

	// A fresh Profiler (fresh memo — the restarted process) over the same
	// data is served from the store, not recomputed.
	p2 := NewProfiler(1).SetStore(store)
	warm, err := p2.Column(db, "songs", "title")
	if err != nil {
		t.Fatal(err)
	}
	if dh, comp := p2.DiskCounters(); dh != 1 || comp != 0 {
		t.Errorf("warm counters = %d disk hits / %d computes, want 1/0", dh, comp)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("round-tripped stats differ:\ncold %+v\nwarm %+v", cold, warm)
	}
	// Float fields survive bit-exactly (encoding/json round-trips float64).
	if math.Float64bits(cold.Constancy) != math.Float64bits(warm.Constancy) ||
		math.Float64bits(cold.StringLength.Mean) != math.Float64bits(warm.StringLength.Mean) {
		t.Error("float statistics not bit-identical after round trip")
	}
}

func TestStoreCoercedViewRoundTrip(t *testing.T) {
	db := profilerDB(t)
	store := newMemStore()
	p1 := NewProfiler(1).SetStore(store)
	cold, coldInc, err := p1.ColumnCoerced(db, "songs", "title", relational.Integer)
	if err != nil {
		t.Fatal(err)
	}
	p2 := NewProfiler(1).SetStore(store)
	warm, warmInc, err := p2.ColumnCoerced(db, "songs", "title", relational.Integer)
	if err != nil {
		t.Fatal(err)
	}
	if coldInc != warmInc {
		t.Errorf("incompatible count lost in round trip: %d vs %d", coldInc, warmInc)
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Errorf("coerced stats differ:\ncold %+v\nwarm %+v", cold, warm)
	}
	if dh, comp := p2.DiskCounters(); dh != 1 || comp != 0 {
		t.Errorf("warm coerced counters = %d/%d, want 1/0", dh, comp)
	}
}

// TestSameTypeCoercedViewSharesRawEntry pins that viewing a column
// through its own declared type is the raw profile — the same memo entry
// and durable key, with nothing incompatible — in both modes and in
// either lookup order, while a view through a different type still gets
// an entry and a durable key of its own.
func TestSameTypeCoercedViewSharesRawEntry(t *testing.T) {
	ctx := context.Background()
	db := profilerDB(t)
	for _, mode := range []Mode{ModeExact, ModeApprox} {
		for _, coercedFirst := range []bool{false, true} {
			store := newMemStore()
			p := NewProfiler(1).SetStore(store)
			var raw, same *ColumnStats
			var incompatible int
			var err, cerr error
			if coercedFirst {
				same, incompatible, cerr = p.ColumnCoercedContextMode(ctx, db, "songs", "length", relational.Integer, mode)
				raw, err = p.ColumnContextMode(ctx, db, "songs", "length", mode)
			} else {
				raw, err = p.ColumnContextMode(ctx, db, "songs", "length", mode)
				same, incompatible, cerr = p.ColumnCoercedContextMode(ctx, db, "songs", "length", relational.Integer, mode)
			}
			if err != nil || cerr != nil {
				t.Fatal(err, cerr)
			}
			if same != raw || incompatible != 0 {
				t.Errorf("%s, coerced first %v: same-type coerced view = (%p, %d), want the raw entry %p with 0 incompatible",
					mode, coercedFirst, same, incompatible, raw)
			}
			rawKey, _ := StatsKeyFor(db, "songs", "length", relational.Integer, false, mode)
			coercedKey, _ := StatsKeyFor(db, "songs", "length", relational.Integer, true, mode)
			if _, ok := store.Get(coercedKey); ok || p.Len() != 1 || store.len() != 1 {
				t.Errorf("%s, coerced first %v: %d memo entries, %d durable entries, coerced key stored %v; want 1, 1, false",
					mode, coercedFirst, p.Len(), store.len(), ok)
			}
			if _, ok := store.Get(rawKey); !ok {
				t.Errorf("%s, coerced first %v: raw durable key missing", mode, coercedFirst)
			}

			asString, _, err := p.ColumnCoercedContextMode(ctx, db, "songs", "length", relational.String, mode)
			if err != nil {
				t.Fatal(err)
			}
			stringKey, _ := StatsKeyFor(db, "songs", "length", relational.String, true, mode)
			if _, ok := store.Get(stringKey); asString == raw || !ok || p.Len() != 2 {
				t.Errorf("%s, coerced first %v: a view through another type must get its own entry and durable key (shared %v, stored %v, %d entries)",
					mode, coercedFirst, asString == raw, ok, p.Len())
			}
		}
	}
}

func TestStoreKeyTracksContent(t *testing.T) {
	db := profilerDB(t)
	store := newMemStore()
	p := NewProfiler(1).SetStore(store)
	if _, err := p.Column(db, "songs", "title"); err != nil {
		t.Fatal(err)
	}
	// Mutating the table moves the content address: a fresh profiler
	// must recompute, not serve the stale profile.
	db.MustInsert("songs", "Bohemian Rhapsody", int64(354000))
	p2 := NewProfiler(1).SetStore(store)
	stats, err := p2.Column(db, "songs", "title")
	if err != nil {
		t.Fatal(err)
	}
	if dh, comp := p2.DiskCounters(); dh != 0 || comp != 1 {
		t.Errorf("post-mutation counters = %d disk hits / %d computes, want 0/1", dh, comp)
	}
	if stats.Rows != 4 {
		t.Errorf("rows = %d, want 4 (stale profile served)", stats.Rows)
	}
	if store.len() != 2 {
		t.Errorf("store entries = %d, want 2 (old and new address)", store.len())
	}
}

func TestStoreGarbageIsIgnoredAndRepaired(t *testing.T) {
	db := profilerDB(t)
	store := newMemStore()
	p := NewProfiler(1).SetStore(store)
	want, err := p.Column(db, "songs", "length")
	if err != nil {
		t.Fatal(err)
	}
	// Replace every stored entry with garbage / mismatched identities.
	store.mu.Lock()
	var keys []string
	for k := range store.m {
		keys = append(keys, k)
	}
	for _, k := range keys {
		store.m[k] = []byte("{not json")
	}
	store.mu.Unlock()

	p2 := NewProfiler(1).SetStore(store)
	got, err := p2.Column(db, "songs", "length")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Error("garbage entry changed the computed profile")
	}
	if dh, comp := p2.DiskCounters(); dh != 0 || comp != 1 {
		t.Errorf("counters = %d/%d, want recompute on garbage", dh, comp)
	}

	// A wrong-identity envelope (valid JSON, different column) is
	// rejected by the sanity check too.
	other, err := p.Column(db, "songs", "title")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(statsEnvelope{Stats: other})
	if err != nil {
		t.Fatal(err)
	}
	store.mu.Lock()
	for _, k := range keys {
		store.m[k] = data
	}
	store.mu.Unlock()
	p3 := NewProfiler(1).SetStore(store)
	if _, err := p3.Column(db, "songs", "length"); err != nil {
		t.Fatal(err)
	}
	if dh, comp := p3.DiskCounters(); dh != 0 || comp != 1 {
		t.Errorf("counters = %d/%d, want recompute on identity mismatch", dh, comp)
	}
}

// TestStoreModeIsolation is the regression test for the cache-poisoning
// fix: an approximate profile must never warm the exact cache (or vice
// versa). An approx run followed by an exact run over the same bytes
// recomputes; a repeated run in the same mode is a disk hit.
func TestStoreModeIsolation(t *testing.T) {
	db := profilerDB(t)
	store := newMemStore()

	// 1. Approximate run: computes and persists under the approx key.
	pa := NewProfiler(1).SetStore(store).SetMode(ModeApprox)
	approx, err := pa.Column(db, "songs", "title")
	if err != nil {
		t.Fatal(err)
	}
	if approx.Approx == nil {
		t.Fatal("approx-mode profile not marked")
	}
	if dh, comp := pa.DiskCounters(); dh != 0 || comp != 1 {
		t.Fatalf("approx cold counters = %d/%d, want 0/1", dh, comp)
	}

	// 2. Exact run over the same bytes and store: must recompute — the
	// approx entry must not be served where an exact profile was asked.
	pe := NewProfiler(1).SetStore(store) // ModeExact is the zero value
	exact, err := pe.Column(db, "songs", "title")
	if err != nil {
		t.Fatal(err)
	}
	if dh, comp := pe.DiskCounters(); dh != 0 || comp != 1 {
		t.Errorf("exact-after-approx counters = %d disk hits / %d computes, want 0/1 (approx entry warmed the exact cache)", dh, comp)
	}
	if exact.Approx != nil {
		t.Error("exact profile carries Approx marker after approx run")
	}
	if store.len() != 2 {
		t.Errorf("store entries = %d, want 2 (one per mode)", store.len())
	}

	// 3. Same-mode reruns on fresh profilers are disk hits in both modes.
	pa2 := NewProfiler(1).SetStore(store).SetMode(ModeApprox)
	warmApprox, err := pa2.Column(db, "songs", "title")
	if err != nil {
		t.Fatal(err)
	}
	if dh, comp := pa2.DiskCounters(); dh != 1 || comp != 0 {
		t.Errorf("approx warm counters = %d/%d, want 1/0", dh, comp)
	}
	if !reflect.DeepEqual(approx, warmApprox) {
		t.Error("approx profile changed through the store round trip")
	}
	pe2 := NewProfiler(1).SetStore(store)
	if _, err := pe2.Column(db, "songs", "title"); err != nil {
		t.Fatal(err)
	}
	if dh, comp := pe2.DiskCounters(); dh != 1 || comp != 0 {
		t.Errorf("exact warm counters = %d/%d, want 1/0", dh, comp)
	}

	// 4. The exported key derivations agree and separate the modes.
	col, _ := db.Schema.Table("songs").Column("title")
	ek, ok := StatsKeyFor(db, "songs", "title", col.Type, false, ModeExact)
	if !ok {
		t.Fatal("StatsKeyFor failed for a known table")
	}
	ak, ok := StatsKeyFor(db, "songs", "title", col.Type, false, ModeApprox)
	if !ok {
		t.Fatal("StatsKeyFor(approx) failed for a known table")
	}
	if ek == ak {
		t.Error("exact and approx stats keys collide")
	}
	for _, k := range []string{ek, ak} {
		if _, ok := store.Get(k); !ok {
			t.Errorf("derived key %s not present in the store", k)
		}
	}
}

func TestFaultStoreErrorsAreNeverPersisted(t *testing.T) {
	defer faultinject.Reset()
	db := profilerDB(t)
	store := newMemStore()
	p := NewProfiler(1).SetStore(store)
	faultinject.Enable("profile:column", faultinject.Fault{
		Kind: faultinject.Error, Err: errors.New("injected"), Times: 1,
	})
	if _, err := p.Column(db, "songs", "title"); err == nil {
		t.Fatal("want injected error")
	}
	if store.len() != 0 || store.puts != 0 {
		t.Fatalf("failed computation reached the store: %d entries, %d puts", store.len(), store.puts)
	}
	// The failure was transient: the retry computes and persists.
	if _, err := p.Column(db, "songs", "title"); err != nil {
		t.Fatal(err)
	}
	if store.len() != 1 {
		t.Errorf("store entries = %d, want 1 after recovery", store.len())
	}
}
