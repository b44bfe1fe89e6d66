package main

import (
	"math"
	"testing"
)

func TestTailStat(t *testing.T) {
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 2000 samples: the cap percentile has well over 10 beyond it.
	if v, p, ok := newDist(xs).tailStat(); !ok || v != 20*tailCap || p != tailCap {
		t.Errorf("tailStat(2000) = %g, p%g, %v", v, p, ok)
	}
	if got := newDist(xs).p50(); got != 1000 {
		t.Errorf("p50 = %g, want 1000", got)
	}
	// 30 samples: the highest percentile with 10 beyond is sample 20.
	if v, p, ok := newDist(xs[:30]).tailStat(); !ok || v != 20 || math.Abs(p-66.67) > 0.01 {
		t.Errorf("tailStat(30) = %g, p%g, %v", v, p, ok)
	}
	// Just too few samples for the cap: the 11th slowest.
	n := int(math.Ceil(minBeyond/(1-tailCap/100.0))) - 1
	if v, _, ok := newDist(xs[:n]).tailStat(); !ok || v != float64(n-minBeyond) {
		t.Errorf("tailStat(%d) = %g, %v", n, v, ok)
	}
	if _, _, ok := newDist(xs[:19]).tailStat(); ok {
		t.Error("tail of 19 samples must be refused")
	}
}

func TestValidName(t *testing.T) {
	for name, want := range map[string]bool{
		"setup_s":                      true,
		"latency_ms.p50":               true,
		"efesd.estimate_hit_ms.p99":    true,
		"relational.ingest_mb_per_s":   true,
		"9lives":                       true,
		"":                             false,
		".hidden":                      false,
		"_x":                           false,
		"has space":                    false,
		"slash/no":                     false,
		"unicodé":                      false,
		"a" + string(make([]byte, 64)): false,
	} {
		if got := validName(name); got != want {
			t.Errorf("validName(%q) = %v, want %v", name, got, want)
		}
	}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		seen := map[string]bool{}
		for _, d := range defs {
			if !validName(d.name) || seen[d.name] {
				t.Errorf("metric %q is malformed or declared twice", d.name)
			}
			seen[d.name] = true
		}
	}
}

func TestFailedFracDenominator(t *testing.T) {
	// Sheds and wrong outputs are attempted ops: 3 failed of 12 attempted
	// is a quarter, not 3/9.
	if got, err := failedFrac(3, 12); err != nil || got != 0.25 {
		t.Errorf("failedFrac(3, 12) = %g, %v", got, err)
	}
	if got, err := failedFrac(0, 5); err != nil || got != 0 {
		t.Errorf("failedFrac(0, 5) = %g, %v", got, err)
	}
	for _, tc := range [][2]int{{0, 0}, {1, 0}, {6, 5}, {-1, 5}} {
		if _, err := failedFrac(tc[0], tc[1]); err == nil {
			t.Errorf("failedFrac(%d, %d) accepted", tc[0], tc[1])
		}
	}
	// A run's report counts every attempt once, failed or not.
	rep := newReport()
	for i := 0; i < 4; i++ {
		rep.Attempted++
		if i%2 == 0 {
			rep.fail(errTest)
		}
	}
	if f, _ := failedFrac(rep.Failed, rep.Attempted); f != 0.5 || rep.Correct {
		t.Errorf("report failed_frac = %g, correct = %v", f, rep.Correct)
	}
	if math.IsNaN(percentile(nil, 50)) == false {
		t.Error("percentile of no samples must be NaN")
	}
}

var errTest = errorString("wrong output")

type errorString string

func (e errorString) Error() string { return string(e) }
