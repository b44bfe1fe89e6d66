package main

import (
	"context"
	"fmt"
	"time"

	"efes/internal/core"
	"efes/internal/csg"
	"efes/internal/effort"
	"efes/internal/mapping"
	"efes/internal/match"
	"efes/internal/persist"
	"efes/internal/profile"
	"efes/internal/relational"
	"efes/internal/structure"
	"efes/internal/valuefit"
)

// estimateCase is the input of one benchmark op: a scenario, either
// already loaded (warm) or as text the op ingests into fresh databases,
// estimated at each of qualities.
type estimateCase struct {
	name      string
	text      *scenarioText
	warm      *core.Scenario
	qualities []effort.Quality
	// newFramework returns the framework one op estimates with.
	newFramework func() *core.Framework
	// profWorkers sizes the profiler of the layer-by-layer replay.
	profWorkers int
	// ref holds the reference digest per quality, computed in set-up.
	ref map[effort.Quality]string
}

// scenario returns the op's scenario: the warm one, or a fresh ingest.
func (c *estimateCase) scenario() (*core.Scenario, error) {
	if c.warm != nil {
		return c.warm, nil
	}
	return c.text.ingest()
}

// estimate runs the op the way a user of the program does: one call
// into the framework per quality. It returns the digest per quality.
func (c *estimateCase) estimate(ctx context.Context, check func(*core.Result) error) (map[effort.Quality]string, error) {
	scn, err := c.scenario()
	if err != nil {
		return nil, err
	}
	fw := c.newFramework()
	out := map[effort.Quality]string{}
	for _, q := range c.qualities {
		res, err := fw.EstimateContext(ctx, scn, q)
		if err != nil {
			return nil, fmt.Errorf("%s (%s): %w", c.name, q, err)
		}
		if check != nil {
			if err := check(res); err != nil {
				return nil, fmt.Errorf("%s (%s): %w", c.name, q, err)
			}
		}
		d, _, err := resultDigest(res)
		if err != nil {
			return nil, err
		}
		out[q] = d
	}
	return out, nil
}

// verify compares an op's digests with the set-up references.
func (c *estimateCase) verify(got map[effort.Quality]string) error {
	for _, q := range c.qualities {
		if got[q] != c.ref[q] {
			return fmt.Errorf("%s (%s): result digest %.12s, reference %.12s", c.name, q, got[q], c.ref[q])
		}
	}
	return nil
}

// estimateLayers are the spans whose self times make up one estimate;
// their sum over the untraced op time is trace.coverage.
var estimateLayers = []string{
	"relational.ingest", "relational.vectorize", "profile", "csg.build", "csg.search",
	"structure.self", "structure.plan", "mapping.detect", "mapping.plan",
	"valuefit.detect", "valuefit.plan", "effort.price", "core.encode",
}

// layerCounts are the work counts one replayed op records.
type layerCounts struct {
	ingestBytes    int
	profileColumns int64
	paths          int
}

// replay performs the op layer by layer, with a span around each call
// into a layer's public functions, and checks that the pieces add up to
// the same result bytes as the framework call. The structure detector
// builds and searches its own CSG; csg.build and csg.search time those
// steps separately, so structure's self time is its detect time minus
// both.
func (c *estimateCase) replay(ctx context.Context, sp opSpans, n *layerCounts) error {
	return sp.do(0, "op", func(root int) error {
		scn := c.warm
		var err error
		if scn == nil {
			n.ingestBytes = c.text.Bytes()
			if err := sp.do(root, "relational.ingest", func(int) error {
				scn, err = c.text.ingest()
				return err
			}); err != nil {
				return err
			}
		}
		dbs := []*relational.Database{scn.Target}
		for _, src := range scn.Sources {
			dbs = append(dbs, src.DB)
		}
		_ = sp.do(root, "relational.vectorize", func(int) error {
			for _, db := range dbs {
				for _, t := range db.Schema.Tables() {
					db.Vectors(t.Name)
				}
			}
			return nil
		})

		prof := profile.NewProfiler(c.profWorkers)
		if err := sp.do(root, "profile", func(int) error { return profileAll(ctx, prof, scn) }); err != nil {
			return err
		}
		_, n.profileColumns = prof.Counters()

		mm, sm, vm := mapping.New(), structure.New(), valuefit.New()
		vm.Profiler = prof // warm: valuefit.detect is the decision model only
		reports := make([]core.Report, 3)
		for i, step := range []struct {
			name string
			run  func() (core.Report, error)
		}{
			{"mapping.detect", func() (core.Report, error) { return mm.AssessComplexityContext(ctx, scn) }},
			{"structure.detect", func() (core.Report, error) { return sm.AssessComplexityContext(ctx, scn) }},
			{"valuefit.detect", func() (core.Report, error) { return vm.AssessComplexityContext(ctx, scn) }},
		} {
			if err := sp.do(root, step.name, func(int) error {
				reports[i], err = step.run()
				return err
			}); err != nil {
				return err
			}
		}
		// The CSG steps run after the detector that repeats them, so the
		// detector pays the cold build and its self time is not understated.
		type built struct {
			g    *csg.Graph
			inst *csg.Interned
		}
		var tg *csg.Graph
		srcs := make([]built, len(scn.Sources))
		if err := sp.do(root, "csg.build", func(int) error {
			if tg, err = csg.FromSchema(scn.Target.Schema); err != nil {
				return err
			}
			for i, src := range scn.Sources {
				if srcs[i].g, err = csg.FromSchema(src.DB.Schema); err != nil {
					return err
				}
				if srcs[i].inst, err = csg.FromDatabaseInterned(srcs[i].g, src.DB); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if err := sp.do(root, "csg.search", func(int) error {
			n.paths = 0
			for i, src := range scn.Sources {
				nm := csg.NodeMatch(src.Correspondences.NodeMatch())
				for _, e := range tg.Edges() {
					if e.Card.Equal(csg.CardAny) || nm[e.From.ID] == "" || nm[e.To.ID] == "" {
						continue
					}
					p, err := csg.MatchRelationshipContext(ctx, e, srcs[i].g, nm)
					if err != nil {
						return err
					}
					if p != nil {
						n.paths++
					}
				}
			}
			return nil
		}); err != nil {
			return err
		}

		calc := c.newFramework().Calculator()
		for _, q := range c.qualities {
			var tasks []effort.Task
			for i, step := range []struct {
				name string
				m    core.Module
			}{{"mapping.plan", mm}, {"structure.plan", sm}, {"valuefit.plan", vm}} {
				if err := sp.do(root, step.name, func(int) error {
					ts, err := step.m.PlanTasks(reports[i], q)
					tasks = append(tasks, ts...)
					return err
				}); err != nil {
					return err
				}
			}
			var est *effort.Estimate
			if err := sp.do(root, "effort.price", func(int) error {
				est, err = calc.Price(q, tasks)
				return err
			}); err != nil {
				return err
			}
			var digest string
			if err := sp.do(root, "core.encode", func(int) error {
				digest, _, err = resultDigest(&core.Result{Scenario: scn.Name, Reports: reports, Estimate: est})
				return err
			}); err != nil {
				return err
			}
			if digest != c.ref[q] {
				return fmt.Errorf("%s (%s): layered replay digest %.12s, reference %.12s", c.name, q, digest, c.ref[q])
			}
		}
		return nil
	})
}

// sideLayers times the layers an estimate does not call: the schema
// matcher, the content hash the daemon keys results by, and, for a warm
// case, ingesting its text. They are root spans of the op, outside its
// estimate.
func (c *estimateCase) sideLayers(sp opSpans, n *layerCounts) error {
	scn, err := c.text.ingest()
	if err != nil {
		return err
	}
	if c.warm != nil {
		n.ingestBytes = c.text.Bytes()
		if err := sp.do(0, "relational.ingest", func(int) error {
			_, err := c.text.ingest()
			return err
		}); err != nil {
			return err
		}
	}
	if err := sp.do(0, "persist.hash", func(int) error {
		_, err := persist.ScenarioHash(scn)
		return err
	}); err != nil {
		return err
	}
	return sp.do(0, "match", func(int) error {
		for _, src := range scn.Sources {
			if set := match.NewMatcher().Match(src.DB, scn.Target); len(set.All) == 0 {
				return fmt.Errorf("%s: matcher found no correspondences", c.name)
			}
		}
		return nil
	})
}

// profileAll profiles both sides of every attribute correspondence the
// way the value-fit detector reads them: raw source, target, and the
// source coerced to the target's type.
func profileAll(ctx context.Context, prof *profile.Profiler, scn *core.Scenario) error {
	for _, src := range scn.Sources {
		for _, c := range src.Correspondences.AttributePairs() {
			if _, err := prof.ColumnContext(ctx, src.DB, c.SourceTable, c.SourceColumn); err != nil {
				return err
			}
			if _, err := prof.ColumnContext(ctx, scn.Target, c.TargetTable, c.TargetColumn); err != nil {
				return err
			}
			col, ok := scn.Target.Schema.Table(c.TargetTable).Column(c.TargetColumn)
			if !ok {
				return fmt.Errorf("unknown target column %s.%s", c.TargetTable, c.TargetColumn)
			}
			if _, _, err := prof.ColumnCoercedContext(ctx, src.DB, c.SourceTable, c.SourceColumn, col.Type); err != nil {
				return err
			}
		}
	}
	return nil
}

// sinceMS is the milliseconds elapsed since t.
func sinceMS(t time.Time) float64 { return ms(time.Since(t)) }
