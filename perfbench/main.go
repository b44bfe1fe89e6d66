// Command perfbench is the EFES benchmark. It runs one seeded workload,
// checks every output for correctness, and prints the workload's
// metrics; the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 31, "failed": 0, "metrics": {"setup_s": {"value": 1.5, "unit": "s"}, ...}}
//
// Usage (from the repository root, through run.sh, which builds this
// program and efesd first):
//
//	bash perfbench/run.sh --workload paper-scale --seed 7 --seconds 20 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate, traced run reports the per-layer ones. README.md in this
// directory documents the workloads and the metric map.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"efes/internal/effort"
)

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 3

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	efesdBin string
	workDir  string
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of the output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runReport collects a run's metrics and the notes printed beside them.
type runReport struct {
	result
	notes map[string]string
	// errs are the first few failed checks, printed to standard error.
	errs []string
}

func newReport() *runReport {
	return &runReport{result: result{Correct: true, Metrics: map[string]metricValue{}}, notes: map[string]string{}}
}

func (r *runReport) set(name string, v float64, note string) {
	r.Metrics[name] = metricValue{Value: v}
	if note != "" {
		r.notes[name] = note
	}
}

// fail records a failed op.
func (r *runReport) fail(err error) {
	r.Failed++
	r.Correct = false
	if len(r.errs) < 5 {
		r.errs = append(r.errs, err.Error())
	}
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var seconds int
	var traceFlag int
	var compare string
	flag.StringVar(&cfg.workload, "workload", "", "workload: paper-scale, source-selection or daemon-mix")
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "seed of every generated input")
	flag.IntVar(&seconds, "seconds", 20, "how long the timed phases run")
	flag.IntVar(&traceFlag, "trace", 0, "1: traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.efesdBin, "efesd", "", "efesd binary the daemon phases run")
	flag.StringVar(&cfg.workDir, "work", ".bench_build/perfbench", "scratch directory for the daemon cache and the span file")
	flag.StringVar(&compare, "compare", "", "saved output of an earlier run to compare against")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.trace = traceFlag == 1
	if seconds < 1 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == cfg.workload {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", cfg.workload)
		return 2
	}
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	host := hostInfo(cfg)
	hostLine, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hostLine)

	rep := newReport()
	var err error
	if cfg.trace {
		err = runTraced(cfg, w, rep)
	} else {
		err = runUntraced(cfg, w, rep)
	}
	if err == nil {
		err = rep.validate(cfg.trace)
	}
	for _, e := range rep.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if compare != "" {
		if err := compareWith(compare, host, rep.result); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: compare:", err)
		}
	}
	rep.print(cfg)
	if !rep.Correct {
		return 1
	}
	return 0
}

// validate checks that the run reports exactly the declared metrics,
// each finite and well named, and fills in their units.
func (r *runReport) validate(traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	if r.Attempted < 1 {
		return fmt.Errorf("no op attempted")
	}
	if _, err := failedFrac(r.Failed, r.Attempted); err != nil {
		return err
	}
	if len(r.Metrics) != len(defs) {
		return fmt.Errorf("run reported %d metrics, %d declared", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := r.Metrics[d.name]
		if !ok {
			return fmt.Errorf("metric %s not reported", d.name)
		}
		if !validName(d.name) {
			return fmt.Errorf("bad metric name %q", d.name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", d.name, m.Value)
		}
		m.Unit = d.unit
		r.Metrics[d.name] = m
	}
	return nil
}

// print writes the human-readable report and then the result line.
func (r *runReport) print(cfg config) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	frac, _ := failedFrac(r.Failed, r.Attempted)
	fmt.Printf("workload %s seed %d: %d ops attempted, %d failed, failed_frac %.4f\n",
		cfg.workload, cfg.seed, r.Attempted, r.Failed, frac)
	for _, d := range defs {
		m := r.Metrics[d.name]
		line := fmt.Sprintf("  %-28s %14.4f %-6s", d.name, m.Value, d.unit)
		if n := r.notes[d.name]; n != "" {
			line += "  [" + n + "]"
		}
		fmt.Println(line)
		fmt.Printf("  %-28s %s\n", "", "moves/means: "+d.about)
	}
	out, _ := json.Marshal(r.result)
	fmt.Println(string(out))
}

// hostInfo records where a run happened, so that runs from different
// machines are not compared unawares.
func hostInfo(cfg config) map[string]any {
	cpu := "unknown"
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	return map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds.Seconds(), "trace": cfg.trace,
		"cpu": cpu, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
	}
}

// compareWith reads a saved earlier output, warns when it comes from a
// different host or configuration, and prints each metric's ratio of
// this run to that one.
func compareWith(path string, host map[string]any, now result) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var prevHost map[string]any
	var prev result
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if rest, ok := strings.CutPrefix(line, "host "); ok {
			if err := json.Unmarshal([]byte(rest), &prevHost); err != nil {
				return err
			}
		} else if strings.HasPrefix(line, "{") {
			if err := json.Unmarshal([]byte(line), &prev); err != nil {
				return err
			}
		}
	}
	for _, k := range []string{"cpu", "nproc", "gomaxprocs", "go", "workload", "seconds", "trace"} {
		is, _ := json.Marshal(host[k])
		was, _ := json.Marshal(prevHost[k])
		if string(is) != string(was) {
			fmt.Printf("WARNING: comparing across hosts or settings: %s was %s, is %s\n", k, was, is)
		}
	}
	names := make([]string, 0, len(now.Metrics))
	for n := range now.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if p, ok := prev.Metrics[n]; ok && p.Value != 0 {
			fmt.Printf("compare %-28s %14.4f / %14.4f = %.3f\n", n, now.Metrics[n].Value, p.Value, now.Metrics[n].Value/p.Value)
		}
	}
	return nil
}

// batchOps runs the workload's op in a closed loop with one caller for
// d, cycling through the cases in the seeded order; on a machine too
// slow for the 2*minBeyond ops a tail needs it runs on, up to 3*d, until
// it has them. It returns the latencies of the ops that passed their
// checks.
func batchOps(ctx context.Context, st *state, d time.Duration, rep *runReport) []float64 {
	var lat []float64
	start := time.Now()
	for i := 0; time.Since(start) < d || (len(lat) < 2*minBeyond && time.Since(start) < 3*d); i++ {
		c := st.cases[st.order[i%len(st.order)]]
		t := time.Now()
		got, err := c.estimate(ctx, st.check)
		took := sinceMS(t)
		if err == nil {
			err = c.verify(got)
		}
		rep.Attempted++
		if err != nil {
			rep.fail(err)
			continue
		}
		lat = append(lat, took)
	}
	return lat
}

// verifyDefaultSeed compares set-up references with the digests
// committed for the default seed.
func verifyDefaultSeed(cfg config, st *state) error {
	if cfg.seed != defaultSeed || cfg.workload == "daemon-mix" {
		return nil
	}
	all, err := committedDigests()
	if err != nil {
		return err
	}
	want := all[cfg.workload]
	for _, c := range st.cases {
		for _, q := range c.qualities {
			key := digestKey(c, q)
			if want[key] != c.ref[q] {
				return fmt.Errorf("%s: digest %.12s differs from the committed %.12s", key, c.ref[q], want[key])
			}
		}
	}
	return nil
}

// digestKey names one committed digest: case and quality.
func digestKey(c *estimateCase, q effort.Quality) string {
	if q == effort.LowEffort {
		return c.name + "/low"
	}
	return c.name + "/high"
}

// runUntraced measures the end-to-end metrics.
func runUntraced(cfg config, w *workload, rep *runReport) error {
	ctx := context.Background()
	var srv *efesd
	var mix *mixRunner
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	var spec *daemonSpec
	st, setupS, err := timedSetups(setupRuns, func() (*state, error) {
		st, err := w.setup(cfg.seed)
		if err != nil || w.name != "daemon-mix" {
			return st, err
		}
		if spec, err = st.daemon(); err != nil {
			return nil, err
		}
		if srv, err = startEfesd(cfg.efesdBin, cfg.workDir, runtime.NumCPU()); err != nil {
			return nil, err
		}
		mix = newMixRunner(srv, &spec.plan)
		return st, mix.uploadAll()
	}, func() {
		if srv != nil {
			srv.stop()
		}
	})
	if err != nil {
		return err
	}
	if err := verifyDefaultSeed(cfg, st); err != nil {
		return err
	}
	rep.set("setup_s", setupS, fmt.Sprintf("median of %d set-ups", setupRuns))

	if w.name == "daemon-mix" {
		open := cfg.seconds * 17 / 20
		res, err := mix.runPhases(ctx, cfg.seed, spec.rate, open, cfg.seconds-open, runtime.NumCPU())
		if err != nil {
			return err
		}
		rss, err := srv.peakRSSMB()
		if err != nil {
			return err
		}
		srv.stop()
		ok, saturation := verifyMix(mix, res, rep)
		lat := make([]float64, len(ok))
		for i, t := range ok {
			lat[i] = ms(t.latency())
		}
		d := newDist(lat)
		tail, label := tailNote(d)
		if math.IsNaN(tail) {
			return fmt.Errorf("only %d requests passed", d.n)
		}
		rep.set("latency_ms.p50", d.p50(), fmt.Sprintf("request_ms.p50 of %d requests at %g/s", d.n, spec.rate))
		rep.set("latency_ms.tail", tail, "request_ms "+label)
		rep.set("ops_per_s", saturation, fmt.Sprintf("saturation_rps over %d connections, %d requests", runtime.NumCPU(), len(res.closed)))
		rep.set("peak_rss_mb", rss, "efesd child VmHWM")
		late := lateness(res.times)
		lp, llabel := tailNote(late)
		fmt.Printf("loadgen: late %s %.3f ms, backlog max %d\n", llabel, lp, res.backlogMax)
		return nil
	}

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	lat := batchOps(ctx, st, cfg.seconds, rep)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	d := newDist(lat)
	tail, label := tailNote(d)
	if math.IsNaN(tail) {
		return fmt.Errorf("only %d ops passed; a run needs %d", d.n, 2*minBeyond)
	}
	rss, err := vmHWM(os.Getpid())
	if err != nil {
		return err
	}
	rep.set("latency_ms.p50", d.p50(), fmt.Sprintf("estimate_ms.p50 of %d ops", d.n))
	rep.set("latency_ms.tail", tail, "estimate_ms "+label)
	rep.set("ops_per_s", float64(d.n)/elapsed.Seconds(), "estimates_per_s")
	rep.set("peak_rss_mb", rss, "workload process VmHWM")
	fmt.Printf("alloc_mb_per_op %.3f MB\n", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6/float64(rep.Attempted))
	return nil
}

// tailNote renders the tail of d for the report; a tail the sample
// count cannot support is refused and NaN.
func tailNote(d dist) (float64, string) {
	v, p, ok := d.tailStat()
	if !ok {
		return math.NaN(), fmt.Sprintf("tail refused: %d samples", d.n)
	}
	return v, fmt.Sprintf("p%.4g of %d samples", p, d.n)
}

// spanFile is where a traced run writes its spans.
func spanFile(cfg config) string {
	return filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
}
