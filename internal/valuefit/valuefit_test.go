package valuefit

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/match"
	"efes/internal/profile"
	"efes/internal/relational"
	"efes/internal/scenario"
)

// pairScenario builds a one-table scenario with a single correspondence
// between a source column and a target column holding the given values.
func pairScenario(t *testing.T, srcType, tgtType relational.Type, srcVals, tgtVals []relational.Value) *core.Scenario {
	t.Helper()
	ss := relational.NewSchema("src")
	ss.MustAddTable(relational.MustTable("s", relational.Column{Name: "a", Type: srcType}))
	ts := relational.NewSchema("tgt")
	ts.MustAddTable(relational.MustTable("t", relational.Column{Name: "b", Type: tgtType}))
	sdb := relational.NewDatabase(ss)
	for _, v := range srcVals {
		sdb.MustInsert("s", v)
	}
	tdb := relational.NewDatabase(ts)
	for _, v := range tgtVals {
		tdb.MustInsert("t", v)
	}
	corr := &match.Set{}
	corr.Attr("s", "a", "t", "b")
	return &core.Scenario{Name: "pair", Target: tdb,
		Sources: []*core.Source{{Name: "src", DB: sdb, Correspondences: corr}}}
}

func detect(t *testing.T, scn *core.Scenario) *Report {
	t.Helper()
	rep, err := New().AssessComplexity(scn)
	if err != nil {
		t.Fatal(err)
	}
	return rep.(*Report)
}

func ints(vals ...int64) []relational.Value {
	out := make([]relational.Value, len(vals))
	for i, v := range vals {
		out[i] = v
	}
	return out
}

func strs(vals ...string) []relational.Value {
	out := make([]relational.Value, len(vals))
	for i, v := range vals {
		out[i] = v
	}
	return out
}

func durations(n int) []relational.Value {
	out := make([]relational.Value, n)
	for i := range out {
		out[i] = fmt.Sprintf("%d:%02d", 2+i%9, (i*7)%60)
	}
	return out
}

func millis(n int) []relational.Value {
	out := make([]relational.Value, n)
	for i := range out {
		out[i] = int64(120000 + i*997)
	}
	return out
}

func TestExample33DifferentRepresentations(t *testing.T) {
	// The paper's Example 3.3: durations as "m:ss" strings in the
	// target, lengths as millisecond integers in the source. Integers
	// cast to strings, so the heterogeneity is uncritical, but the text
	// patterns differ completely.
	scn := pairScenario(t, relational.Integer, relational.String, millis(60), durations(60))
	rep := detect(t, scn)
	if len(rep.Heterogeneities) != 1 {
		t.Fatalf("heterogeneities = %v", rep.Heterogeneities)
	}
	h := rep.Heterogeneities[0]
	if h.Kind != DifferentRepresentations {
		t.Errorf("kind = %q, want %q", h.Kind, DifferentRepresentations)
	}
	if h.Fit >= FitThreshold {
		t.Errorf("fit = %v, want < %v", h.Fit, FitThreshold)
	}
	if h.SourceValues != 60 || h.SourceDistinct != 60 {
		t.Errorf("counts = %d/%d", h.SourceValues, h.SourceDistinct)
	}
	if h.Pair() != "a -> b" {
		t.Errorf("pair = %q", h.Pair())
	}
}

func TestCriticalIncompatibleValues(t *testing.T) {
	// Strings like "4:43" cannot be cast to an integer target.
	scn := pairScenario(t, relational.String, relational.Integer, durations(20), millis(20))
	rep := detect(t, scn)
	if len(rep.Heterogeneities) != 1 {
		t.Fatalf("heterogeneities = %v", rep.Heterogeneities)
	}
	h := rep.Heterogeneities[0]
	if h.Kind != DifferentRepresentationsCritical {
		t.Errorf("kind = %q, want critical", h.Kind)
	}
	if h.Incompatible != 20 {
		t.Errorf("incompatible = %d, want 20", h.Incompatible)
	}
}

func TestSeamlessPairUndetected(t *testing.T) {
	// Same format, same scale: no heterogeneity.
	scn := pairScenario(t, relational.String, relational.String, durations(50), durations(40))
	rep := detect(t, scn)
	if len(rep.Heterogeneities) != 0 {
		t.Errorf("seamless pair flagged: %v", rep.Heterogeneities)
	}
	if rep.PairsChecked != 1 {
		t.Errorf("pairs checked = %d", rep.PairsChecked)
	}
}

func TestTooFewSourceValues(t *testing.T) {
	src := []relational.Value{nil, nil, nil, nil, nil, nil, nil, nil, nil, "x"}
	tgt := strs("a", "b", "c", "d", "e", "f", "g", "h", "i", "j")
	scn := pairScenario(t, relational.String, relational.String, src, tgt)
	rep := detect(t, scn)
	if len(rep.Heterogeneities) != 1 || rep.Heterogeneities[0].Kind != TooFewElements {
		t.Errorf("heterogeneities = %v, want TooFewElements", rep.Heterogeneities)
	}
}

func TestTooCoarseAndTooFine(t *testing.T) {
	// Source from a small discrete domain, target free-form.
	var coarse []relational.Value
	for i := 0; i < 60; i++ {
		coarse = append(coarse, []string{"Rock", "Pop", "Jazz"}[i%3])
	}
	var free []relational.Value
	for i := 0; i < 60; i++ {
		free = append(free, fmt.Sprintf("Progressive Sub-Genre %d", i))
	}
	scn := pairScenario(t, relational.String, relational.String, coarse, free)
	rep := detect(t, scn)
	if len(rep.Heterogeneities) != 1 || rep.Heterogeneities[0].Kind != TooCoarse {
		t.Fatalf("heterogeneities = %v, want TooCoarse", rep.Heterogeneities)
	}
	// And the mirror image.
	scn = pairScenario(t, relational.String, relational.String, free, coarse)
	rep = detect(t, scn)
	if len(rep.Heterogeneities) != 1 || rep.Heterogeneities[0].Kind != TooFine {
		t.Fatalf("heterogeneities = %v, want TooFine", rep.Heterogeneities)
	}
}

func TestNumericScaleMismatch(t *testing.T) {
	// Seconds vs milliseconds: numeric stats reveal the mismatch.
	secs := make([]relational.Value, 50)
	for i := range secs {
		secs[i] = int64(120 + i)
	}
	scn := pairScenario(t, relational.Integer, relational.Integer, millis(50), secs)
	rep := detect(t, scn)
	if len(rep.Heterogeneities) != 1 || rep.Heterogeneities[0].Kind != DifferentRepresentations {
		t.Fatalf("heterogeneities = %v, want DifferentRepresentations", rep.Heterogeneities)
	}
}

func TestNumericSameScaleFits(t *testing.T) {
	a := make([]relational.Value, 80)
	b := make([]relational.Value, 80)
	for i := range a {
		a[i] = int64(200 + i%40)
		b[i] = int64(195 + (i*3)%50)
	}
	scn := pairScenario(t, relational.Integer, relational.Integer, a, b)
	rep := detect(t, scn)
	if len(rep.Heterogeneities) != 0 {
		t.Errorf("same-scale numerics flagged: %v (fit %v)", rep.Heterogeneities, rep.Heterogeneities[0].Fit)
	}
}

func TestTable6Reproduction(t *testing.T) {
	cfg := scenario.SmallExampleConfig()
	scn := scenario.MusicExample(cfg)
	rep := detect(t, scn)
	var lengthDuration *Heterogeneity
	for _, h := range rep.Heterogeneities {
		if h.Pair() == "length -> duration" {
			lengthDuration = h
		}
	}
	if lengthDuration == nil {
		t.Fatalf("missing length -> duration heterogeneity: %v", rep.Heterogeneities)
	}
	if lengthDuration.Kind != DifferentRepresentations {
		t.Errorf("kind = %q", lengthDuration.Kind)
	}
	if lengthDuration.SourceValues != cfg.Songs {
		t.Errorf("source values = %d, want %d", lengthDuration.SourceValues, cfg.Songs)
	}
	if lengthDuration.SourceDistinct != cfg.DistinctLengths {
		t.Errorf("distinct = %d, want %d", lengthDuration.SourceDistinct, cfg.DistinctLengths)
	}
}

func TestPlanTable7Mapping(t *testing.T) {
	mk := func(kind Kind) *Heterogeneity {
		return &Heterogeneity{Kind: kind, SourceValues: 100, SourceDistinct: 80,
			SourceAttr: relational.ColumnRef{Table: "s", Column: "a"},
			TargetAttr: relational.ColumnRef{Table: "t", Column: "b"}}
	}
	cases := []struct {
		kind     Kind
		lowType  effort.TaskType
		lowEmit  bool
		highType effort.TaskType
	}{
		{TooFewElements, "", false, effort.TaskAddMissingValues},
		{DifferentRepresentationsCritical, effort.TaskDropValues, true, effort.TaskConvertValues},
		{DifferentRepresentations, "", false, effort.TaskConvertValues},
		{TooFine, "", false, effort.TaskGeneralizeValues},
		{TooCoarse, "", false, effort.TaskRefineValues},
	}
	m := New()
	for _, c := range cases {
		rep := &Report{Heterogeneities: []*Heterogeneity{mk(c.kind)}}
		low, err := m.PlanTasks(rep, effort.LowEffort)
		if err != nil {
			t.Fatal(err)
		}
		if c.lowEmit {
			if len(low) != 1 || low[0].Type != c.lowType {
				t.Errorf("%s low plan = %v, want %s", c.kind, low, c.lowType)
			}
		} else if len(low) != 0 {
			t.Errorf("%s low plan = %v, want ignored", c.kind, low)
		}
		high, err := m.PlanTasks(rep, effort.HighQuality)
		if err != nil {
			t.Fatal(err)
		}
		if len(high) != 1 || high[0].Type != c.highType {
			t.Errorf("%s high plan = %v, want %s", c.kind, high, c.highType)
		}
		if len(high) == 1 {
			if high[0].Category != effort.CategoryCleaningValues {
				t.Errorf("category = %s", high[0].Category)
			}
			if high[0].Param("values") != 100 || high[0].Param("dist-vals") != 80 {
				t.Errorf("params = %v", high[0].Params)
			}
		}
	}
}

func TestTable8Pricing(t *testing.T) {
	// Table 8: the Convert values task for length -> duration. Priced
	// with Table 9's piecewise function: 0.25 · #dist-vals when the
	// distinct count is >= 120.
	h := &Heterogeneity{Kind: DifferentRepresentations, SourceValues: 274523, SourceDistinct: 260923,
		SourceAttr: relational.ColumnRef{Table: "songs", Column: "length"},
		TargetAttr: relational.ColumnRef{Table: "tracks", Column: "duration"}}
	m := New()
	tasks, err := m.PlanTasks(&Report{Heterogeneities: []*Heterogeneity{h}}, effort.HighQuality)
	if err != nil {
		t.Fatal(err)
	}
	est, err := effort.NewCalculator(effort.DefaultSettings()).Price(effort.HighQuality, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if got := est.Total(); got != 0.25*260923 {
		t.Errorf("Table 8 effort = %v, want %v (Table 9 function)", got, 0.25*260923)
	}
	// Below the 120-distinct-values knee, the effort is the constant
	// script-writing cost of 30 minutes.
	h.SourceDistinct = 100
	tasks, _ = m.PlanTasks(&Report{Heterogeneities: []*Heterogeneity{h}}, effort.HighQuality)
	est, _ = effort.NewCalculator(effort.DefaultSettings()).Price(effort.HighQuality, tasks)
	if got := est.Total(); got != 30 {
		t.Errorf("small-domain convert effort = %v, want 30", got)
	}
}

func TestPlanRejectsForeignReport(t *testing.T) {
	if _, err := New().PlanTasks(fakeReport{}, effort.LowEffort); err == nil {
		t.Error("foreign report type must be rejected")
	}
}

type fakeReport struct{}

func (fakeReport) ModuleName() string { return "fake" }
func (fakeReport) Summary() string    { return "" }
func (fakeReport) ProblemCount() int  { return 0 }

func TestReportSummaryShape(t *testing.T) {
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	rep := detect(t, scn)
	s := rep.Summary()
	for _, want := range []string{"Value heterogeneity", "length -> duration", "distinct source values"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	if rep.ModuleName() != ModuleName {
		t.Error("module name")
	}
}

func TestOverallFitBounds(t *testing.T) {
	ss := profile.Values("s", "a", relational.String, durations(30))
	ts := profile.Values("t", "b", relational.String, durations(30))
	if f := OverallFit(ss, ts); f < 0.99 {
		t.Errorf("identical profiles fit = %v, want ~1", f)
	}
	ms := profile.Values("s", "a", relational.String, toStrings(millis(30)))
	if f := OverallFit(ms, ts); f < 0 || f > 1 {
		t.Errorf("fit out of bounds: %v", f)
	}
	// No applicable statistics: fit defaults to 1.
	empty := profile.Values("s", "a", relational.Bool, nil)
	if f := OverallFit(empty, empty); f != 1 {
		t.Errorf("empty fit = %v, want 1", f)
	}
}

func toStrings(vs []relational.Value) []relational.Value {
	out := make([]relational.Value, len(vs))
	for i, v := range vs {
		out[i] = relational.FormatValue(v)
	}
	return out
}

func TestDomainRestricted(t *testing.T) {
	m := New()
	var domain []relational.Value
	for i := 0; i < 100; i++ {
		domain = append(domain, []string{"a", "b", "c"}[i%3])
	}
	if !m.domainRestricted(profile.Values("t", "c", relational.String, domain)) {
		t.Error("3-value domain over 100 rows should be restricted")
	}
	if m.domainRestricted(profile.Values("t", "c", relational.String, strs("a", "b", "c"))) {
		t.Error("3 rows with 3 values is not a domain")
	}
	if m.domainRestricted(profile.Values("t", "c", relational.String, toStrings(millis(200)))) {
		t.Error("200 distinct values is not a restricted domain")
	}
	if m.domainRestricted(profile.Values("t", "c", relational.String, nil)) {
		t.Error("empty column is not a domain")
	}
}

func TestDistributionHelpers(t *testing.T) {
	if got := rangeFit(&profile.ColumnStats{Min: 0, Max: 10}, &profile.ColumnStats{Min: 5, Max: 15}); got != 0.5 {
		t.Errorf("rangeFit = %v, want 0.5 (overlap 5 over narrower span 10)", got)
	}
	if got := rangeFit(&profile.ColumnStats{Min: 0, Max: 1}, &profile.ColumnStats{Min: 5, Max: 6}); got != 0 {
		t.Errorf("disjoint rangeFit = %v", got)
	}
	if got := rangeFit(&profile.ColumnStats{Min: 2, Max: 2}, &profile.ColumnStats{Min: 2, Max: 2}); got != 1 {
		t.Errorf("degenerate rangeFit = %v", got)
	}
	a := []profile.ValueCount{{Value: "x", Count: 2}, {Value: "y", Count: 2}}
	b := []profile.ValueCount{{Value: "x", Count: 4}}
	if got := distributionIntersection(a, b); got != 0.5 {
		t.Errorf("intersection = %v, want 0.5", got)
	}
	if got := distributionIntersection(nil, b); got != 0 {
		t.Errorf("empty intersection = %v", got)
	}
}

func TestReportAccessors(t *testing.T) {
	m := New()
	if m.Name() != ModuleName {
		t.Error("module name")
	}
	h := &Heterogeneity{Kind: DifferentRepresentations, SourceValues: 10, SourceDistinct: 8,
		SourceAttr: relational.ColumnRef{Table: "s", Column: "a"},
		TargetAttr: relational.ColumnRef{Table: "t", Column: "b"}}
	rep := &Report{Heterogeneities: []*Heterogeneity{h}}
	if rep.ProblemCount() != 1 {
		t.Error("problem count")
	}
	if got := h.String(); !strings.Contains(got, "a -> b") || !strings.Contains(got, "10 source values") {
		t.Errorf("String() = %q", got)
	}
	sites := rep.ProblemSites()
	if len(sites) != 1 || sites[0].Table != "t" || sites[0].Attribute != "b" {
		t.Errorf("sites = %+v", sites)
	}
}

func TestShrinkFitEdges(t *testing.T) {
	if got := shrinkFit(0.2, 0); got != 1 {
		t.Errorf("shrinkFit with no samples = %v, want 1", got)
	}
	if got := shrinkFit(1, 100); got != 1 {
		t.Errorf("perfect fit stays perfect, got %v", got)
	}
	// Monotone in n: larger samples trust the raw fit more.
	if shrinkFit(0.2, 10) <= shrinkFit(0.2, 1000) {
		t.Error("shrinkage must weaken with sample size")
	}
}

func TestDistImportanceEdges(t *testing.T) {
	if got := distImportance(profile.Dist{}); got != 0 {
		t.Errorf("zero dist importance = %v", got)
	}
	if got := distImportance(profile.Dist{Mean: 0, StdDev: 3}); got != 0.5 {
		t.Errorf("zero-mean importance = %v", got)
	}
	tight := distImportance(profile.Dist{Mean: 100, StdDev: 1})
	loose := distImportance(profile.Dist{Mean: 100, StdDev: 80})
	if tight <= loose {
		t.Errorf("tight distributions must matter more: %v vs %v", tight, loose)
	}
}

func TestAssessComplexityErrorPropagation(t *testing.T) {
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	scn.Sources[0].Correspondences.Attr("songs", "ghost", "tracks", "duration")
	if _, err := New().AssessComplexity(scn); err == nil {
		t.Error("unknown source column must surface as an error")
	}
}

// TestAllNullColumnsThroughModule is the regression test for the
// degenerate-profile bugfix: empty and all-NULL columns must flow through
// the full value-fit module with defined (finite) fits and never poison
// OverallFit or the 0.9 threshold decision with NaN.
func TestAllNullColumnsThroughModule(t *testing.T) {
	nulls := make([]relational.Value, 20)
	cases := []struct {
		name             string
		srcVals, tgtVals []relational.Value
	}{
		{"all-null target", durations(20), nulls},
		{"all-null source", nulls, durations(20)},
		{"both all-null", nulls, nulls},
		{"empty target", durations(20), nil},
		{"empty source", nil, durations(20)},
		{"empty-string source", strs("", "", "", "", "", "", "", "", "", ""), durations(20)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			scn := pairScenario(t, relational.String, relational.String, c.srcVals, c.tgtVals)
			rep := detect(t, scn)
			for _, h := range rep.Heterogeneities {
				if math.IsNaN(h.Fit) || math.IsInf(h.Fit, 0) {
					t.Errorf("heterogeneity %v has non-finite fit %v", h, h.Fit)
				}
			}
			// The all-NULL source against a filled target must be
			// reported as too few elements, not silently dropped.
			if c.name == "all-null source" {
				if len(rep.Heterogeneities) != 1 || rep.Heterogeneities[0].Kind != TooFewElements {
					t.Errorf("heterogeneities = %v, want TooFewElements", rep.Heterogeneities)
				}
			}
		})
	}
}

// TestFitGuardsDegenerateInputs pins the defined fits of the leaf
// functions on degenerate and non-finite inputs.
func TestFitGuardsDegenerateInputs(t *testing.T) {
	empty := profile.Values("s", "a", relational.String, nil)
	full := profile.Values("t", "b", relational.String, durations(30))
	if got := charHistFit(empty, empty); got != 1 {
		t.Errorf("charHistFit(empty, empty) = %v, want 1 (no evidence of mismatch)", got)
	}
	if got := charHistFit(empty, full); got != 0 {
		t.Errorf("charHistFit(empty, full) = %v, want 0", got)
	}
	if got := charHistFit(full, full); math.IsNaN(got) || got < 0.99 {
		t.Errorf("charHistFit(full, full) = %v, want ~1", got)
	}
	nan := math.NaN()
	if got := distFit(profile.Dist{Mean: nan, StdDev: nan}, profile.Dist{Mean: 3, StdDev: 1}); got != 1 {
		t.Errorf("distFit with NaN moments = %v, want neutral 1", got)
	}
	if got := distFit(profile.Dist{Mean: math.Inf(1)}, profile.Dist{Mean: 3, StdDev: 1}); got != 1 {
		t.Errorf("distFit with Inf mean = %v, want neutral 1", got)
	}
	if got := rangeFit(&profile.ColumnStats{Min: nan, Max: nan}, &profile.ColumnStats{Min: 0, Max: 1}); got != 1 {
		t.Errorf("rangeFit with NaN bounds = %v, want neutral 1", got)
	}
	// OverallFit never returns NaN, even when fed degenerate profiles.
	for _, pair := range [][2]*profile.ColumnStats{{empty, empty}, {empty, full}, {full, empty}} {
		if got := OverallFit(pair[0], pair[1]); math.IsNaN(got) || math.IsInf(got, 0) {
			t.Errorf("OverallFit(%s, %s) = %v, want finite", pair[0].Column, pair[1].Column, got)
		}
	}
}

// TestOverallFitSkipsNonFiniteStatistics feeds profiles containing ±Inf
// values (legal float64 cell contents) through OverallFit: the poisoned
// mean/range statistics must be skipped rather than turning the weighted
// average into NaN, which would silently disable the threshold decision.
func TestOverallFitSkipsNonFiniteStatistics(t *testing.T) {
	inf := []relational.Value{math.Inf(1), math.Inf(-1), 3.0, 4.0}
	ss := profile.Values("s", "a", relational.Float, inf)
	ts := profile.Values("t", "b", relational.Float, []relational.Value{1.0, 2.0, 3.0})
	if got := OverallFit(ss, ts); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("OverallFit with Inf data = %v, want finite", got)
	}
}

// TestProfilerCacheEliminatesRepeatedTargetProfiling asserts the tentpole
// cache property: with several correspondences feeding one target column,
// a shared Profiler profiles that column once and serves the rest from the
// cache.
func TestProfilerCacheEliminatesRepeatedTargetProfiling(t *testing.T) {
	ss := relational.NewSchema("src")
	ss.MustAddTable(relational.MustTable("s",
		relational.Column{Name: "a1", Type: relational.String},
		relational.Column{Name: "a2", Type: relational.String},
		relational.Column{Name: "a3", Type: relational.String}))
	ts := relational.NewSchema("tgt")
	ts.MustAddTable(relational.MustTable("t", relational.Column{Name: "b", Type: relational.String}))
	sdb := relational.NewDatabase(ss)
	tdb := relational.NewDatabase(ts)
	for i, d := range durations(30) {
		sdb.MustInsert("s", d, durations(30)[i], durations(30)[i])
		tdb.MustInsert("t", d)
	}
	corr := &match.Set{}
	corr.Attr("s", "a1", "t", "b")
	corr.Attr("s", "a2", "t", "b")
	corr.Attr("s", "a3", "t", "b")
	scn := &core.Scenario{Name: "fanin", Target: tdb,
		Sources: []*core.Source{{Name: "src", DB: sdb, Correspondences: corr}}}

	m := New()
	m.Profiler = profile.NewProfiler(2)
	if _, err := m.AssessComplexity(scn); err != nil {
		t.Fatal(err)
	}
	// Each pair profiles its raw source column (3 misses); the target
	// column is a miss once and a hit for the other two pairs. Source and
	// target are both String, so each pair's coerced source view is its
	// raw profile: 3 more hits, no extra miss.
	hits, misses := m.Profiler.Counters()
	if misses != 4 {
		t.Errorf("misses = %d, want 4 (target profiled exactly once, coerced views shared)", misses)
	}
	if hits != 5 {
		t.Errorf("hits = %d, want 5 (two target reuses, three same-type coerced views)", hits)
	}
	// A second assessment over the same scenario is served entirely from
	// the cache.
	if _, err := m.AssessComplexity(scn); err != nil {
		t.Fatal(err)
	}
	if _, misses := m.Profiler.Counters(); misses != 4 {
		t.Errorf("misses after re-run = %d, want still 4", misses)
	}
	if m.Profiler.HitRate() < 0.5 {
		t.Errorf("hit rate = %v, want >= 0.5", m.Profiler.HitRate())
	}
}

// TestSharedProfilerMatchesPrivateProfiler asserts that routing the
// detector through a shared cache does not change its verdicts.
func TestSharedProfilerMatchesPrivateProfiler(t *testing.T) {
	scn := scenario.MusicExample(scenario.SmallExampleConfig())
	private := detect(t, scn)
	shared := New()
	shared.Profiler = profile.NewProfiler(4)
	rep, err := shared.AssessComplexity(scn)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rep.Summary(), private.Summary(); got != want {
		t.Errorf("shared-profiler report differs:\n%s\nvs\n%s", got, want)
	}
}
