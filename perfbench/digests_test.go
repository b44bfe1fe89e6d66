package main

import (
	"encoding/json"
	"flag"
	"os"
	"testing"
)

var update = flag.Bool("update", false, "rewrite digests.json from the current program")

// TestCommittedDigests recomputes the reference outputs of the batch
// workloads at the default seed and compares them with digests.json;
// -update rewrites the file.
func TestCommittedDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("generates the paper-scale scenario")
	}
	got := map[string]map[string]string{}
	for _, w := range workloads[:2] {
		st, err := w.setup(defaultSeed)
		if err != nil {
			t.Fatal(err)
		}
		got[w.name] = map[string]string{}
		for _, c := range st.cases {
			for _, q := range c.qualities {
				got[w.name][digestKey(c, q)] = c.ref[q]
			}
		}
	}
	if *update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("digests.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := committedDigests()
	if err != nil {
		t.Fatal(err)
	}
	for w, cells := range got {
		for k, d := range cells {
			if want[w][k] != d {
				t.Errorf("%s %s: digest %s, committed %q", w, k, d, want[w][k])
			}
		}
		if len(want[w]) != len(cells) {
			t.Errorf("%s: %d committed digests, %d computed", w, len(want[w]), len(cells))
		}
	}
}
