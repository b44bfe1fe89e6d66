package csg_test

import (
	"testing"

	"efes/internal/csg"
	"efes/internal/scenario"
	"efes/internal/structure"
)

// TestStructureAssessmentSkipsUnreadAttributes pins what lazy interning
// buys the structure detector on the running example: its checks on
// songs.name and songs.length are answered statically or from the null
// bitmap, so neither column (the latter with a distinct value per song)
// is ever interned, while the equality paths it does walk are.
func TestStructureAssessmentSkipsUnreadAttributes(t *testing.T) {
	counter, stop := csg.CountInterns()
	defer stop()
	if _, err := structure.New().AssessComplexity(scenario.MusicExample(scenario.SmallExampleConfig())); err != nil {
		t.Fatal(err)
	}
	for _, col := range []string{"name", "length"} {
		if n := counter.Count(csg.AttributeNodeID("songs", col)); n != 0 {
			t.Errorf("songs.%s interned %d times, want 0", col, n)
		}
	}
	if counter.Total() == 0 {
		t.Error("no attribute interned: the counter is not wired to the interning path")
	}
}
