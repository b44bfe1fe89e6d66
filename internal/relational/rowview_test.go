package relational_test

import (
	"bytes"
	"sync"
	"testing"

	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/mapping"
	"efes/internal/match"
	"efes/internal/persist"
	"efes/internal/profile"
	"efes/internal/relational"
	"efes/internal/scenario"
	"efes/internal/structure"
	"efes/internal/valuefit"
)

// reload renders every table of db as CSV and loads it into a fresh
// instance of the same schema.
func reload(t *testing.T, db *relational.Database) *relational.Database {
	t.Helper()
	out := relational.NewDatabase(db.Schema)
	for _, tab := range db.Schema.Tables() {
		var buf bytes.Buffer
		if err := db.WriteCSV(tab.Name, &buf); err != nil {
			t.Fatal(err)
		}
		if err := out.ReadCSV(tab.Name, &buf); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// csvScenario is the small running example, loaded from its CSV
// rendering the way cmd/efes and efesd load scenarios.
func csvScenario(t *testing.T) *core.Scenario {
	t.Helper()
	orig := scenario.MusicExample(scenario.SmallExampleConfig())
	scn := &core.Scenario{Name: orig.Name, Target: reload(t, orig.Target)}
	for _, src := range orig.Sources {
		scn.Sources = append(scn.Sources, &core.Source{
			Name: src.Name, DB: reload(t, src.DB), Correspondences: src.Correspondences,
		})
	}
	return scn
}

// The estimate, the matcher, the profiler, discovery and the scenario
// hash read the column vectors; none of them may build the row view.
func TestColumnConsumersNeverBuildRows(t *testing.T) {
	scn := csvScenario(t)
	fw := core.New(effort.NewCalculator(effort.DefaultSettings()),
		mapping.New(), structure.New(), valuefit.New()).SetWorkers(2)
	for _, q := range []effort.Quality{effort.LowEffort, effort.HighQuality} {
		if _, err := fw.Estimate(scn, q); err != nil {
			t.Fatal(err)
		}
	}
	src := scn.Sources[0].DB
	if set := match.NewMatcher().Match(src, scn.Target); len(set.All) == 0 {
		t.Fatal("matcher found no correspondences")
	}
	if _, err := profile.NewProfiler(2).ProfileDatabase(src); err != nil {
		t.Fatal(err)
	}
	profile.Discover(src)
	if _, err := persist.ScenarioHash(scn); err != nil {
		t.Fatal(err)
	}
	for _, db := range []*relational.Database{scn.Target, src} {
		if n := db.RowViewBuilds(); n != 0 {
			t.Errorf("%s: %d row views built, want 0", db.Schema.Name, n)
		}
	}
	// The row API still works, and builds each table's view once.
	tables := src.Schema.Tables()
	for _, tab := range tables {
		src.Rows(tab.Name)
		src.Rows(tab.Name)
	}
	if n := src.RowViewBuilds(); n != int64(len(tables)) {
		t.Errorf("row views built = %d, want one per table (%d)", n, len(tables))
	}
}

// Concurrent first readers share one row-view build and see the same
// rows as the vectors (run under -race by make verify).
func TestConcurrentFirstRowsAndColumn(t *testing.T) {
	db := reload(t, scenario.MusicExample(scenario.SmallExampleConfig()).Sources[0].DB)
	const readers = 8
	rows := make([][]relational.Row, readers)
	cols := make([][]relational.Value, readers)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				rows[i] = db.Rows("songs")
			} else {
				cols[i] = db.MustColumn("songs", "name")
			}
			db.Vector("songs", "name").SortedDistinct()
		}(i)
	}
	wg.Wait()
	if n := db.RowViewBuilds(); n != 1 {
		t.Errorf("row views built = %d, want 1", n)
	}
	vec := db.Vector("songs", "name")
	for i := 0; i < readers; i++ {
		if i%2 == 0 {
			if len(rows[i]) != db.NumRows("songs") || &rows[i][0] != &rows[0][0] {
				t.Fatalf("reader %d got a different row view", i)
			}
			continue
		}
		for r, v := range cols[i] {
			if v != vec.Value(r) || rows[0][r][1] != v {
				t.Fatalf("reader %d row %d: column %v, vector %v, row view %v", i, r, v, vec.Value(r), rows[0][r][1])
			}
		}
	}
}
