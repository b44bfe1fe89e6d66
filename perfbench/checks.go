package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"efes/internal/core"
	"efes/internal/mapping"
	"efes/internal/scenario"
	"efes/internal/structure"
	"efes/internal/valuefit"
)

// defaultSeed is the paper's generator seed; the committed digests are
// the outputs at this seed.
const defaultSeed = 7

//go:embed digests.json
var committedDigestsJSON []byte

// committedDigests maps a workload to its reference digests at
// defaultSeed, keyed by cell ("<scenario>/<quality>").
func committedDigests() (map[string]map[string]string, error) {
	var m map[string]map[string]string
	if err := json.Unmarshal(committedDigestsJSON, &m); err != nil {
		return nil, fmt.Errorf("digests.json: %w", err)
	}
	return m, nil
}

// resultDigest is the SHA-256 of the result's canonical JSON.
func resultDigest(r *core.Result) (string, []byte, error) {
	data, err := r.JSON()
	if err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), data, nil
}

// checkPaperTables verifies that a running-example result reproduces
// the paper's Table 2 (mapping), Table 3 (structure) and Table 6
// (value fit) at the published scale. These counts are built into the
// generator's configuration, so they hold at every seed.
func checkPaperTables(r *core.Result, cfg scenario.ExampleConfig) error {
	var mr *mapping.Report
	var sr *structure.Report
	var vr *valuefit.Report
	for _, rep := range r.Reports {
		switch rep := rep.(type) {
		case *mapping.Report:
			mr = rep
		case *structure.Report:
			sr = rep
		case *valuefit.Report:
			vr = rep
		}
	}
	if mr == nil || sr == nil || vr == nil {
		return fmt.Errorf("missing module report")
	}
	conns := map[string]mapping.Connection{}
	for _, c := range mr.Connections {
		conns[c.TargetTable] = c
	}
	// Table 2: records 3/2/yes, tracks 3/2/no.
	for _, want := range []struct {
		table string
		pk    bool
	}{{"records", true}, {"tracks", false}} {
		c := conns[want.table]
		if len(c.SourceTables) != 3 || c.Attributes != 2 || c.NeedsPK != want.pk {
			return fmt.Errorf("table 2 %s: %d tables, %d attributes, pk=%v", want.table, len(c.SourceTables), c.Attributes, c.NeedsPK)
		}
	}
	// Table 3: κ(records→artist)=1 violated by the 102+401 albums with
	// no or several artists, κ(artist→records)=1..* by the 102 artists
	// without albums.
	viol := map[string]int{}
	for _, c := range sr.Checks {
		viol[c.TargetRel] = c.Violations
	}
	if got, want := viol["records -> artist"], cfg.AlbumsNoArtist+cfg.AlbumsMultiArtist; got != want || want != 503 {
		return fmt.Errorf("table 3 records -> artist: %d violations, want 503", got)
	}
	if got := viol["artist -> records"]; got != cfg.ArtistsWithoutAlbums || got != 102 {
		return fmt.Errorf("table 3 artist -> records: %d violations, want 102", got)
	}
	// Table 6: length→duration over 274,523 values, 260,923 distinct.
	for _, h := range vr.Heterogeneities {
		if h.Pair() == "length -> duration" {
			if h.SourceValues != 274523 || h.SourceDistinct != 260923 {
				return fmt.Errorf("table 6: %d values, %d distinct", h.SourceValues, h.SourceDistinct)
			}
			return nil
		}
	}
	return fmt.Errorf("table 6: no length -> duration heterogeneity")
}
