package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"efes"
	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/experiments"
	"efes/internal/mapping"
	"efes/internal/profile"
	"efes/internal/scenario"
	"efes/internal/structure"
	"efes/internal/valuefit"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	// setup builds the workload's inputs from the seed.
	setup func(seed int64) (*state, error)
}

// state is what a set-up leaves for the timed phases.
type state struct {
	cases []*estimateCase
	// order is the seeded sequence of case indexes the ops cycle through.
	order []int
	// check validates every result beyond its digest.
	check func(*core.Result) error
	// daemon builds the load the daemon phases drive.
	daemon func() (*daemonSpec, error)
}

// daemonSpec configures a daemon phase over a workload's scenarios.
type daemonSpec struct {
	plan mixPlan
	// rate is the open-loop offered load in requests per second.
	rate float64
}

var workloads = []workload{
	{name: "paper-scale", setup: setupPaperScale},
	{name: "source-selection", setup: setupSourceSelection},
	{name: "daemon-mix", setup: setupDaemonMix},
}

// cliFramework configures an estimate the way cmd/efes does by default:
// detectors and profiler use every CPU, and each op gets a fresh
// profiler, so nothing is warm.
func cliFramework() *core.Framework {
	w := runtime.GOMAXPROCS(0)
	vf := valuefit.New()
	vf.Profiler = profile.NewProfiler(w)
	return efes.NewFrameworkWith(effort.DefaultConfig().Calculator(), mapping.New(), structure.New(), vf).
		SetWorkers(w).
		SetFallback(efes.NewCountingBaseline())
}

// daemonFramework mirrors efesd -workers 1: one detector worker, one
// profiler worker, default effort configuration.
func daemonFramework() *core.Framework {
	vf := valuefit.New()
	vf.Profiler = profile.NewProfiler(1)
	return efes.NewFrameworkWith(effort.DefaultConfig().Calculator(), mapping.New(), structure.New(), vf).
		SetFallback(efes.NewCountingBaseline())
}

// reference fills a case's reference digests with one estimate.
func (c *estimateCase) reference(ctx context.Context, check func(*core.Result) error) error {
	got, err := c.estimate(ctx, check)
	if err != nil {
		return err
	}
	c.ref = got
	return nil
}

// paperConfig is the paper's running example at its published size,
// generated from the benchmark seed.
func paperConfig(seed int64) scenario.ExampleConfig {
	cfg := scenario.PaperExampleConfig()
	cfg.Seed = seed
	return cfg
}

// setupPaperScale generates the running example at paper scale and
// renders it to schema text and CSV bytes; every op parses those into
// fresh databases and runs a cold high-quality estimate.
func setupPaperScale(seed int64) (*state, error) {
	cfg := paperConfig(seed)
	text, err := render(scenario.MusicExample(cfg))
	if err != nil {
		return nil, err
	}
	c := &estimateCase{
		name: "paper-scale", text: text, qualities: []effort.Quality{effort.HighQuality},
		newFramework: cliFramework, profWorkers: runtime.GOMAXPROCS(0),
	}
	check := func(r *core.Result) error { return checkPaperTables(r, cfg) }
	if err := c.reference(context.Background(), check); err != nil {
		return nil, err
	}
	return &state{
		cases: []*estimateCase{c}, order: []int{0}, check: check,
		daemon: func() (*daemonSpec, error) {
			e, err := newPoolEntry("paper-scale", []*scenarioText{text})
			if err != nil {
				return nil, err
			}
			return &daemonSpec{plan: mixPlan{pool: []*poolEntry{e}, tenants: 1, weights: paperMix}, rate: 4}, nil
		},
	}, nil
}

// selectionSeeds derives the scenario seeds of the source-selection
// grid from the benchmark seed.
func selectionSeeds(seed int64, n int) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = rng.Int63n(1 << 31)
	}
	return out
}

// selectionSpecs are the eight evaluation scenarios of Figs. 6/7.
func selectionSpecs() []experiments.ScenarioSpec {
	var out []experiments.ScenarioSpec
	for _, d := range []experiments.Domain{experiments.BibliographicDomain(), experiments.MusicDomain()} {
		out = append(out, d.Scenarios...)
	}
	return out
}

// selectionGridSeeds is how many seeded versions of each evaluation
// scenario the source-selection grid holds.
const selectionGridSeeds = 12

// setupSourceSelection builds the evaluation scenarios at several
// seeds, loads and vectorizes them, and estimates each once for the
// reference; ops then cycle through the cells in a seeded order, both
// qualities per op, through one shared default framework.
func setupSourceSelection(seed int64) (*state, error) {
	fw := efes.NewFramework(efes.DefaultSettings())
	shared := func() *core.Framework { return fw }
	st := &state{}
	for _, s := range selectionSeeds(seed, selectionGridSeeds) {
		for _, spec := range selectionSpecs() {
			scn := spec.Build(s)
			text, err := render(scn)
			if err != nil {
				return nil, err
			}
			c := &estimateCase{
				name: fmt.Sprintf("%s@%d", spec.Name, s), text: text, warm: scn,
				qualities:    []effort.Quality{effort.LowEffort, effort.HighQuality},
				newFramework: shared, profWorkers: runtime.GOMAXPROCS(0),
			}
			if err := c.reference(context.Background(), nil); err != nil {
				return nil, err
			}
			st.cases = append(st.cases, c)
		}
	}
	st.order = rand.New(rand.NewSource(seed)).Perm(len(st.cases))
	// The traced run measures the service layers under the daemon-mix
	// load, which is not a gated workload itself (see README.md).
	st.daemon = func() (*daemonSpec, error) { return daemonMixSpec(seed) }
	return st, nil
}

// Route weights (estimate, upload, profile, match). The paper-scale
// daemon phase uploads rarely: one upload there is ten megabytes.
var (
	serviceMix = [numRoutes]float64{0.86, 0.03, 0.10, 0.01}
	paperMix   = [numRoutes]float64{0.89, 0.02, 0.08, 0.01}
)

// daemonMixRate is the offered load of daemon-mix in requests per
// second; see README.md for how it was chosen against saturation_rps.
const daemonMixRate = 120

// daemonSlots is how many seeded versions of each source-selection
// scenario the daemon-mix uploads cycle through.
const daemonSlots = 6

// daemonMixSpec builds the daemon-mix load: four tenants share the
// eight evaluation scenarios in several seeded versions and two running
// examples at LargeExampleConfig size (~1.2 MB upload bodies).
func daemonMixSpec(seed int64) (*daemonSpec, error) {
	specs := selectionSpecs()
	seeds := selectionSeeds(seed, daemonSlots)
	entries := make([][]*scenarioText, len(specs))
	for i, spec := range specs {
		for _, s := range seeds {
			text, err := render(spec.Build(s))
			if err != nil {
				return nil, err
			}
			entries[i] = append(entries[i], text)
		}
	}
	var large [][]*scenarioText
	for k := 0; k < 2; k++ {
		var versions []*scenarioText
		for v := 0; v < 3; v++ {
			cfg := scenario.LargeExampleConfig()
			cfg.Seed = seeds[v] + int64(k)
			text, err := render(scenario.MusicExample(cfg))
			if err != nil {
				return nil, err
			}
			versions = append(versions, text)
		}
		large = append(large, versions)
	}
	var pool []*poolEntry
	for i, spec := range specs {
		e, err := newPoolEntry(spec.Name, entries[i])
		if err != nil {
			return nil, err
		}
		pool = append(pool, e)
	}
	for k, versions := range large {
		e, err := newPoolEntry(fmt.Sprintf("large-%d", k), versions)
		if err != nil {
			return nil, err
		}
		pool = append(pool, e)
	}
	return &daemonSpec{plan: mixPlan{pool: pool, tenants: 4, weights: serviceMix}, rate: daemonMixRate}, nil
}

// setupDaemonMix builds the daemon-mix pool and the in-process
// references of its scenarios.
func setupDaemonMix(seed int64) (*state, error) {
	spec, err := daemonMixSpec(seed)
	if err != nil {
		return nil, err
	}
	st := &state{daemon: func() (*daemonSpec, error) { return spec, nil }}
	// The in-process cases are slot 0 of every pool entry, estimated the
	// way the daemon does after an upload: fresh databases, one worker.
	for _, e := range spec.plan.pool {
		c := &estimateCase{
			name: e.name, text: e.slots[0],
			qualities:    []effort.Quality{effort.LowEffort, effort.HighQuality},
			newFramework: daemonFramework, profWorkers: 1,
		}
		if err := c.reference(context.Background(), nil); err != nil {
			return nil, err
		}
		st.cases = append(st.cases, c)
	}
	st.order = rand.New(rand.NewSource(seed)).Perm(len(st.cases))
	return st, nil
}

// timedSetups runs set-up n times and reports the median wall time;
// the state of the last one is kept. teardown releases an earlier
// set-up's resources before the next, outside the timing.
func timedSetups(n int, setup func() (*state, error), teardown func()) (*state, float64, error) {
	var st *state
	var secs []float64
	for i := 0; i < n; i++ {
		if i > 0 {
			teardown()
		}
		st = nil
		runtime.GC()
		t := time.Now()
		var err error
		if st, err = setup(); err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t).Seconds())
	}
	return st, median(secs), nil
}
