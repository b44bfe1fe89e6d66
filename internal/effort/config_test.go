package effort

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

func TestDefaultConfigMatchesTable9(t *testing.T) {
	// The declarative config and the calculator built from it must
	// price every known task like the original Table-9 functions.
	calc := DefaultConfig().Calculator()
	reference := NewCalculator(DefaultSettings())
	tasks := []Task{
		{Type: TaskMergeValues, Repetitions: 503},
		{Type: TaskConvertValues, Repetitions: 1, Params: map[string]float64{"dist-vals": 100}},
		{Type: TaskConvertValues, Repetitions: 1, Params: map[string]float64{"dist-vals": 260923}},
		{Type: TaskGeneralizeValues, Repetitions: 1, Params: map[string]float64{"dist-vals": 40}},
		{Type: TaskRefineValues, Repetitions: 1, Params: map[string]float64{"values": 10}},
		{Type: TaskDropValues, Repetitions: 1},
		{Type: TaskAddMissingValues, Repetitions: 102, Params: map[string]float64{"values": 102}},
		{Type: TaskCreateTuples, Repetitions: 1},
		{Type: TaskDeleteDetachedVals, Repetitions: 7},
		{Type: TaskRejectTuples, Repetitions: 3},
		{Type: TaskAddTuples, Repetitions: 102},
		{Type: TaskWriteMapping, Repetitions: 1, Params: map[string]float64{"tables": 3, "attributes": 2, "PKs": 1, "FKs": 1}},
	}
	for _, task := range tasks {
		a, err := calc.Price(HighQuality, []Task{task})
		if err != nil {
			t.Fatalf("config calc: %v", err)
		}
		b, err := reference.Price(HighQuality, []Task{task})
		if err != nil {
			t.Fatalf("reference calc: %v", err)
		}
		if a.Total() != b.Total() {
			t.Errorf("%s: config %v != reference %v", task.Type, a.Total(), b.Total())
		}
	}
}

func TestConfigJSONRoundTrip(t *testing.T) {
	c := DefaultConfig()
	var buf bytes.Buffer
	if err := c.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadConfig(&buf)
	if err != nil {
		t.Fatalf("LoadConfig: %v", err)
	}
	if len(loaded.Functions) != len(c.Functions) {
		t.Fatalf("functions = %d, want %d", len(loaded.Functions), len(c.Functions))
	}
	// The reloaded config prices like the original.
	task := Task{Type: TaskConvertValues, Repetitions: 1, Params: map[string]float64{"dist-vals": 260923}}
	a, _ := c.Calculator().Price(HighQuality, []Task{task})
	b, _ := loaded.Calculator().Price(HighQuality, []Task{task})
	if a.Total() != b.Total() {
		t.Errorf("round-tripped config prices %v, want %v", b.Total(), a.Total())
	}
	if loaded.Settings.SkillFactor != 1 {
		t.Errorf("settings lost: %+v", loaded.Settings)
	}
}

func TestLoadConfigErrors(t *testing.T) {
	bad := []string{
		``,
		`{`,
		`{"settings":{},"functions":{"X":{"switchParam":"n"}}}`,                                                         // switch without below
		`{"settings":{},"functions":{"X":{"switchParam":"x","below":{"switchParam":"y"}}}}`,                             // nested switch without below
		`{"settings":{},"functions":{"X":{"switchParam":"x","below":{"switchParam":"y","below":{"switchParam":"z"}}}}}`, // two levels down
		`{"settings":{},"bogusField":1,"functions":{"X":{}}}`,                                                           // unknown field
		`{"settings":{}}`, // no functions
	}
	for _, text := range bad {
		if _, err := LoadConfig(strings.NewReader(text)); err == nil {
			t.Errorf("LoadConfig(%q) should fail", text)
		}
	}
}

func TestCustomConfig(t *testing.T) {
	text := `{
	  "settings": {"SkillFactor": 2, "Criticality": 1},
	  "functions": {
	    "Reject tuples": {"constant": 8},
	    "Custom audit": {"perRepetition": 1.5, "perParam": {"columns": 0.5}}
	  }
	}`
	c, err := LoadConfig(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	calc := c.Calculator()
	est, err := calc.Price(LowEffort, []Task{
		{Type: TaskRejectTuples, Repetitions: 1},
		{Type: "Custom audit", Repetitions: 4, Params: map[string]float64{"columns": 6}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// (8 + 1.5·4 + 0.5·6) · skill 2 = (8 + 6 + 3)·2 = 34.
	if got := est.Total(); got != 34 {
		t.Errorf("custom config total = %v, want 34", got)
	}
}

func TestConfigTaskTypesSorted(t *testing.T) {
	types := DefaultConfig().TaskTypes()
	if len(types) != 18 {
		t.Fatalf("task types = %d, want 18 (Table 9 rows)", len(types))
	}
	for i := 1; i < len(types); i++ {
		if types[i-1] >= types[i] {
			t.Fatalf("task types not sorted: %v", types)
		}
	}
}

func TestConfigMappingToolOverride(t *testing.T) {
	c := DefaultConfig()
	c.Settings.MappingTool = true
	calc := c.Calculator()
	est, err := calc.Price(HighQuality, []Task{
		{Type: TaskWriteMapping, Repetitions: 1, Params: map[string]float64{"tables": 9, "PKs": 9}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := est.Total(); got != 2 {
		t.Errorf("mapping-tool override lost in config path: %v", got)
	}
}

// TestLoadConfigNestedSwitchError: a piecewise branch deep in the Below
// chain without its own below branch is reported with the same error as
// a top-level one.
func TestLoadConfigNestedSwitchError(t *testing.T) {
	_, err := LoadConfig(strings.NewReader(`{"settings":{},"functions":{"X":{"switchParam":"x","below":{"switchParam":"y"}}}}`))
	want := `effort: config for "X" has switchParam but no below branch`
	if err == nil || err.Error() != want {
		t.Errorf("nested switch without below: err = %v, want %q", err, want)
	}
	nested := `{"settings":{},"functions":{"X":{"switchParam":"x","switchBelow":5,"below":{"switchParam":"y","switchBelow":2,"below":{"constant":1}}}}}`
	if _, err := LoadConfig(strings.NewReader(nested)); err != nil {
		t.Errorf("complete nested chain rejected: %v", err)
	}
}

// fuzzTasks is the fixed task list every accepted fuzz config must price
// without panicking: each Table 9 task type with the parameters the
// planners pass, plus a type no default config knows.
func fuzzTasks() []Task {
	params := map[string]float64{
		"dist-vals": 150, "values": 40, "tables": 2, "attributes": 5, "PKs": 1, "FKs": 1,
	}
	var tasks []Task
	for _, tt := range DefaultConfig().TaskTypes() {
		tasks = append(tasks, Task{Type: tt, Repetitions: 3, Params: params})
	}
	return append(tasks, Task{Type: "Custom audit", Repetitions: 1, Params: params})
}

// normalizeConfig drops empty perParam maps, which WriteJSON omits and
// LoadConfig therefore reads back as nil; both price identically.
func normalizeConfig(c Config) Config {
	var norm func(s FunctionSpec) FunctionSpec
	norm = func(s FunctionSpec) FunctionSpec {
		if len(s.PerParam) == 0 {
			s.PerParam = nil
		}
		if s.Below != nil {
			b := norm(*s.Below)
			s.Below = &b
		}
		return s
	}
	out := Config{Settings: c.Settings, Functions: make(map[TaskType]FunctionSpec, len(c.Functions))}
	for tt, s := range c.Functions {
		out.Functions[tt] = norm(s)
	}
	return out
}

// FuzzLoadConfig feeds arbitrary bytes to LoadConfig. It must never
// panic, and a config it accepts must (1) give every switchParam along
// every Below chain a below branch, (2) come back equal through
// WriteJSON -> LoadConfig, and (3) materialize a calculator that prices
// fuzzTasks without panicking (an error for an unknown task type or a
// negative effort is fine). The committed corpus
// (testdata/fuzz/FuzzLoadConfig) holds the nested switchParam without a
// below branch that LoadConfig used to accept.
func FuzzLoadConfig(f *testing.F) {
	var def bytes.Buffer
	if err := DefaultConfig().WriteJSON(&def); err != nil {
		f.Fatal(err)
	}
	f.Add(def.Bytes())
	f.Add([]byte(`{"settings":{"SkillFactor":2},"functions":{"Reject tuples":{"constant":8,"perParam":{}}}}`))
	f.Add([]byte(`{"settings":{},"functions":{"X":{"switchParam":"n"}}}`))
	tasks := fuzzTasks()
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := LoadConfig(bytes.NewReader(data))
		if err != nil {
			return
		}
		for tt, spec := range c.Functions {
			for s := &spec; s != nil; s = s.Below {
				if s.SwitchParam != "" && s.Below == nil {
					t.Fatalf("accepted %q: switchParam %q has no below branch", tt, s.SwitchParam)
				}
			}
		}
		var buf bytes.Buffer
		if err := c.WriteJSON(&buf); err != nil {
			t.Fatalf("WriteJSON of an accepted config: %v", err)
		}
		back, err := LoadConfig(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reloading %s: %v", buf.Bytes(), err)
		}
		if !reflect.DeepEqual(normalizeConfig(c), normalizeConfig(back)) {
			t.Fatalf("round trip changed the config:\n%+v\n%+v", c, back)
		}
		calc := c.Calculator()
		for _, q := range []Quality{LowEffort, HighQuality} {
			_, _ = calc.Price(q, tasks)
		}
	})
}
