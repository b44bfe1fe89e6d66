package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"efes/internal/core"
	"efes/internal/match"
	"efes/internal/relational"
)

// dbText is one database as the program receives it from outside: the
// schema declaration in relational.ParseSchemaText format and one CSV
// body per table. The JSON shape is the efesd upload format.
type dbText struct {
	Schema string            `json:"schema"`
	Tables map[string]string `json:"tables"`
}

type sourceText struct {
	Name string `json:"name"`
	dbText
	Correspondences string `json:"correspondences,omitempty"`
}

// scenarioText is a rendered scenario: every input of one estimate as
// text and CSV bytes, and the POST /v1/scenarios body.
type scenarioText struct {
	Name    string       `json:"name"`
	Target  dbText       `json:"target"`
	Sources []sourceText `json:"sources"`
}

func renderDB(db *relational.Database) (dbText, error) {
	out := dbText{Schema: db.Schema.String(), Tables: map[string]string{}}
	for _, t := range db.Schema.Tables() {
		var buf bytes.Buffer
		if err := db.WriteCSV(t.Name, &buf); err != nil {
			return dbText{}, fmt.Errorf("render %s: %w", t.Name, err)
		}
		out.Tables[t.Name] = buf.String()
	}
	return out, nil
}

// render turns a generated scenario into the text inputs the program
// parses; the generator's in-memory databases never reach the program.
func render(s *core.Scenario) (*scenarioText, error) {
	tgt, err := renderDB(s.Target)
	if err != nil {
		return nil, err
	}
	out := &scenarioText{Name: s.Name, Target: tgt}
	for _, src := range s.Sources {
		db, err := renderDB(src.DB)
		if err != nil {
			return nil, err
		}
		var corrs bytes.Buffer
		if err := src.Correspondences.WriteText(&corrs); err != nil {
			return nil, fmt.Errorf("render correspondences: %w", err)
		}
		out.Sources = append(out.Sources, sourceText{Name: src.Name, dbText: db, Correspondences: corrs.String()})
	}
	return out, nil
}

// Bytes is the size of the schema text and CSV bodies.
func (st *scenarioText) Bytes() int {
	n := dbBytes(st.Target)
	for _, src := range st.Sources {
		n += dbBytes(src.dbText) + len(src.Correspondences)
	}
	return n
}

func dbBytes(d dbText) int {
	n := len(d.Schema)
	for _, body := range d.Tables {
		n += len(body)
	}
	return n
}

// uploadBody is the POST /v1/scenarios request for the scenario.
func (st *scenarioText) uploadBody() ([]byte, error) { return json.Marshal(st) }

// ingestDB parses one database from its text form, the way cmd/efes
// loads a directory and efesd loads an upload.
func ingestDB(d dbText) (*relational.Database, error) {
	schema, err := relational.ParseSchemaText(d.Schema)
	if err != nil {
		return nil, err
	}
	db := relational.NewDatabase(schema)
	names := make([]string, 0, len(d.Tables))
	for name := range d.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := db.ReadCSV(name, strings.NewReader(d.Tables[name])); err != nil {
			return nil, fmt.Errorf("ingest %s: %w", name, err)
		}
	}
	return db, nil
}

// ingest builds a fresh scenario from the rendered inputs.
func (st *scenarioText) ingest() (*core.Scenario, error) {
	tgt, err := ingestDB(st.Target)
	if err != nil {
		return nil, err
	}
	s := &core.Scenario{Name: st.Name, Target: tgt}
	for _, src := range st.Sources {
		db, err := ingestDB(src.dbText)
		if err != nil {
			return nil, err
		}
		corrs, err := match.ParseText(strings.NewReader(src.Correspondences))
		if err != nil {
			return nil, fmt.Errorf("source %s: %w", src.Name, err)
		}
		s.Sources = append(s.Sources, &core.Source{Name: src.Name, DB: db, Correspondences: corrs})
	}
	return s, nil
}
