package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a tail read from fewer samples is one or two outliers, not a tail.
const minBeyond = 10

// beyond is the number of samples above the p-th percentile of n
// samples.
func beyond(p float64, n int) int {
	return int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
}

// percentile is the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted))-1e-9)) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// dist summarises a set of timings.
type dist struct {
	n      int
	sorted []float64
}

func newDist(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{n: len(s), sorted: s}
}

func (d dist) p50() float64 { return percentile(d.sorted, 50) }

// tailCap is the highest percentile the tail statistic reports.
const tailCap = 99

// tailStat is the latency of the highest percentile that has minBeyond
// samples beyond it, capped at tailCap: p99 once a run has 1000
// samples, below that the (minBeyond+1)-th slowest sample. Unlike a fixed
// ladder of percentiles it is defined at every sample count a run
// yields, so every workload reports the same statistic. ok is false
// below 2*minBeyond samples, where the "tail" would reach the median.
func (d dist) tailStat() (v, p float64, ok bool) {
	if d.n < 2*minBeyond {
		return math.NaN(), 0, false
	}
	if beyond(tailCap, d.n) >= minBeyond {
		return percentile(d.sorted, tailCap), tailCap, true
	}
	i := d.n - minBeyond - 1
	return d.sorted[i], 100 * float64(i+1) / float64(d.n), true
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether a metric name is well formed: letters,
// digits, '_', '.', '-', starting with a letter or digit, at most 64.
func validName(name string) bool { return metricName.MatchString(name) }

// failedFrac is failures over operations attempted. An attempt that was
// refused (a 429 shed), errored or produced a wrong output is both
// attempted and failed; the denominator never shrinks to the successes.
func failedFrac(failed, attempted int) (float64, error) {
	if attempted < 1 {
		return 0, fmt.Errorf("no operation attempted")
	}
	if failed < 0 || failed > attempted {
		return 0, fmt.Errorf("failed %d outside 0..%d attempted", failed, attempted)
	}
	return float64(failed) / float64(attempted), nil
}

func median(xs []float64) float64 { return newDist(xs).p50() }
