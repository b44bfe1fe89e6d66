package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"time"

	"efes/internal/effort"
	"efes/internal/match"
	"efes/internal/profile"
)

// warmup is the start of the open phase whose latencies are not
// reported: the daemon is still collecting the set-up's garbage and
// the first misses of the new versions queue behind each other. Those
// requests are still sent, checked and counted.
const warmup = 2 * time.Second

// refKey names one in-process reference output of a pool entry slot.
type refKey struct {
	entry, slot int
	what        string
}

// verifyMix checks every daemon response against the same computation
// done in-process on the same inputs, after the timed phases so the
// checks cost the daemon nothing. An estimate body must equal
// Result.JSON()+"\n" for a slot that was resident while the request ran
// (so hit bytes equal miss bytes), a profile body the JSON of the
// in-process column statistics, a match body the in-process matcher's
// correspondences. It returns the timings of the open-phase requests
// that passed and were due after the warm-up and the closed phase's saturation: requests that
// passed per second.
func verifyMix(m *mixRunner, res *mixResult, rep *runReport) (openOK []timing, saturation float64) {
	refs := map[refKey]string{}
	ref := func(k refKey, compute func() (string, error)) (string, error) {
		if v, ok := refs[k]; ok {
			return v, nil
		}
		v, err := compute()
		if err == nil {
			refs[k] = v
		}
		return v, err
	}
	check := func(l reqLog) error {
		if l.err != nil {
			return l.err
		}
		e := m.plan.pool[l.p.entry]
		switch l.p.route {
		case routeUpload:
			if l.status != http.StatusCreated {
				return fmt.Errorf("upload %s: HTTP %d", e.name, l.status)
			}
			return nil
		case routeEstimate, routeProfile, routeMatch:
			if l.status != http.StatusOK {
				return fmt.Errorf("%s route %d: HTTP %d", e.name, l.p.route, l.status)
			}
		}
		for _, slot := range m.residentSlots([2]int{l.p.tenant, l.p.entry}, l.sent, l.done) {
			text := e.slots[slot]
			var want, got string
			var err error
			switch l.p.route {
			case routeEstimate:
				got = l.digest
				want, err = ref(refKey{l.p.entry, slot, "estimate/" + l.p.quality}, func() (string, error) {
					q := effort.HighQuality
					if l.p.quality == "low" {
						q = effort.LowEffort
					}
					scn, err := text.ingest()
					if err != nil {
						return "", err
					}
					r, err := daemonFramework().EstimateContext(context.Background(), scn, q)
					if err != nil {
						return "", err
					}
					data, err := r.JSON()
					sum := sha256.Sum256(append(data, '\n'))
					return hex.EncodeToString(sum[:]), err
				})
			case routeProfile:
				got = string(l.body)
				col := l.p.col
				want, err = ref(refKey{l.p.entry, slot, "profile/" + col.db + "/" + col.table + "." + col.column}, func() (string, error) {
					scn, err := text.ingest()
					if err != nil {
						return "", err
					}
					db := scn.Target
					for _, src := range scn.Sources {
						if src.Name == col.db {
							db = src.DB
						}
					}
					stats, err := profile.NewProfiler(1).Column(db, col.table, col.column)
					if err != nil {
						return "", err
					}
					data, err := json.MarshalIndent(stats, "", "  ")
					return string(data) + "\n", err
				})
			case routeMatch:
				var body struct {
					Count int    `json:"count"`
					Text  string `json:"text"`
				}
				if err := json.Unmarshal(l.body, &body); err != nil {
					return err
				}
				got = fmt.Sprintf("%d\n%s", body.Count, body.Text)
				want, err = ref(refKey{l.p.entry, slot, "match"}, func() (string, error) {
					scn, err := text.ingest()
					if err != nil {
						return "", err
					}
					set := match.NewMatcher().Match(scn.Sources[0].DB, scn.Target)
					var buf bytes.Buffer
					err = set.WriteText(&buf)
					return fmt.Sprintf("%d\n%s", len(set.All), buf.String()), err
				})
			}
			if err != nil {
				return err
			}
			if got == want {
				return nil
			}
		}
		return fmt.Errorf("%s/%s route %d: response differs from the in-process output", tenantName(l.p.tenant), e.name, l.p.route)
	}
	for i, l := range res.open {
		rep.Attempted++
		if err := check(l); err != nil {
			rep.fail(err)
			continue
		}
		if res.times[i].due >= warmup {
			openOK = append(openOK, res.times[i])
		}
	}
	passed := 0
	for _, l := range res.closed {
		rep.Attempted++
		if err := check(l); err != nil {
			rep.fail(err)
			continue
		}
		passed++
	}
	if res.closedElapsed > 0 {
		saturation = float64(passed) / res.closedElapsed.Seconds()
	}
	return openOK, saturation
}

// routeClass names the route a request latency is reported under.
func routeClass(l reqLog) string {
	switch l.p.route {
	case routeUpload:
		return "upload"
	case routeProfile:
		return "profile"
	case routeMatch:
		return "match"
	}
	if l.hit {
		return "estimate_hit"
	}
	return "estimate_miss"
}

// runTraced measures the per-layer metrics. It runs four phases over
// the workload's inputs: the untraced workload op (the base of
// trace.coverage), the layer-by-layer op without and then with spans
// (their difference is trace.overhead_ms), and a daemon phase over the
// workload's scenarios that reports the service layers.
func runTraced(cfg config, w *workload, rep *runReport) error {
	ctx := context.Background()
	st, err := w.setup(cfg.seed)
	if err != nil {
		return err
	}
	phase := cfg.seconds / 4

	base := newDist(batchOps(ctx, st, phase, rep))
	if base.n == 0 {
		return fmt.Errorf("no untraced op passed")
	}

	var plain []float64
	start := time.Now()
	for i := 0; time.Since(start) < phase; i++ {
		c := st.cases[st.order[i%len(st.order)]]
		t := time.Now()
		rep.Attempted++
		if err := c.replay(ctx, opSpans{}, &layerCounts{}); err != nil {
			rep.fail(err)
			continue
		}
		plain = append(plain, sinceMS(t))
	}

	rec := newRecorder()
	counts := map[int]layerCounts{}
	start = time.Now()
	for i := 0; time.Since(start) < phase; i++ {
		c := st.cases[st.order[i%len(st.order)]]
		var n layerCounts
		rep.Attempted++
		err := c.replay(ctx, rec.op(i), &n)
		if err == nil {
			err = c.sideLayers(rec.op(i), &n)
		}
		if err != nil {
			rep.fail(err)
			continue
		}
		counts[i] = n
	}
	if err := rec.writeJSON(spanFile(cfg)); err != nil {
		return err
	}
	layerMetrics(rep, rec.snapshot(), counts, base.p50(), newDist(plain).p50())

	spec, err := st.daemon()
	if err != nil {
		return err
	}
	if err := daemonLayers(cfg, spec, phase, rep); err != nil {
		return err
	}
	return nil
}

// layerMetrics turns the spans of the traced ops into per-layer
// medians.
func layerMetrics(rep *runReport, spans []span, counts map[int]layerCounts, untracedP50, plainP50 float64) {
	self := selfTimes(spans)
	opDur := map[int]time.Duration{}
	for _, s := range spans {
		if s.Name == "op" {
			opDur[s.Op] = s.dur()
		}
	}
	series := map[string][]float64{}
	for op, n := range counts {
		t := self[op]
		get := func(name string) float64 { return ms(t[name]) }
		for _, name := range []string{"relational.ingest", "relational.vectorize", "profile", "csg.build", "csg.search",
			"structure.detect", "structure.plan", "mapping.detect", "mapping.plan", "valuefit.detect",
			"valuefit.plan", "effort.price", "core.encode", "match", "persist.hash"} {
			series[name] = append(series[name], get(name))
		}
		// The detector's own time is within the noise of its CSG calls
		// timed apart; a difference below zero reads as none.
		structSelf := max(0, get("structure.detect")-get("csg.build")-get("csg.search"))
		series["structure.self"] = append(series["structure.self"], structSelf)
		sum := 0.0
		for _, name := range estimateLayers {
			if name == "structure.self" {
				sum += structSelf
			} else {
				sum += get(name)
			}
		}
		series["coverage"] = append(series["coverage"], sum/untracedP50)
		series["op"] = append(series["op"], ms(opDur[op]))
		series["mbps"] = append(series["mbps"], float64(n.ingestBytes)/1e6/(get("relational.ingest")/1000))
		series["columns"] = append(series["columns"], float64(n.profileColumns))
		series["paths"] = append(series["paths"], float64(n.paths))
	}
	m := func(k string) float64 { return median(series[k]) }
	note := fmt.Sprintf("median of %d traced ops", len(counts))
	for _, l := range []struct{ metric, series string }{
		{"relational.ingest_ms", "relational.ingest"}, {"relational.ingest_mb_per_s", "mbps"},
		{"relational.vectorize_ms", "relational.vectorize"}, {"profile.ms", "profile"}, {"profile.columns", "columns"},
		{"csg.build_ms", "csg.build"}, {"csg.search_ms", "csg.search"}, {"csg.paths", "paths"},
		{"structure.detect_ms", "structure.detect"}, {"structure.self_ms", "structure.self"},
		{"structure.plan_ms", "structure.plan"}, {"mapping.detect_ms", "mapping.detect"}, {"mapping.plan_ms", "mapping.plan"},
		{"valuefit.detect_ms", "valuefit.detect"}, {"valuefit.plan_ms", "valuefit.plan"}, {"effort.price_ms", "effort.price"},
		{"match.ms", "match"}, {"core.encode_ms", "core.encode"}, {"persist.hash_ms", "persist.hash"},
	} {
		rep.set(l.metric, m(l.series), note)
	}
	rep.set("trace.coverage", m("coverage"), fmt.Sprintf("layer self times over the untraced op p50 %.3f ms", untracedP50))
	rep.set("trace.overhead_ms", m("op")-plainP50, fmt.Sprintf("traced %.3f ms vs untraced %.3f ms layer-by-layer op", m("op"), plainP50))
}

// daemonLayers runs efesd under the workload's mix for an open-loop
// phase and reports the service layers from the client's timings and
// the daemon's status counters.
func daemonLayers(cfg config, spec *daemonSpec, d time.Duration, rep *runReport) error {
	srv, err := startEfesd(cfg.efesdBin, cfg.workDir, runtime.NumCPU())
	if err != nil {
		return err
	}
	defer srv.stop()
	mix := newMixRunner(srv, &spec.plan)
	if err := mix.uploadAll(); err != nil {
		return err
	}
	res, err := mix.runPhases(context.Background(), cfg.seed, spec.rate, d, 0, runtime.NumCPU())
	if err != nil {
		return err
	}
	srv.stop()
	verifyMix(mix, res, rep)

	byRoute := map[string][]float64{}
	for i, l := range res.open {
		byRoute[routeClass(l)] = append(byRoute[routeClass(l)], ms(res.times[i].latency()))
	}
	for _, r := range []string{"upload", "estimate_hit", "estimate_miss", "profile", "match"} {
		dd := newDist(byRoute[r])
		p50, p99, note := 0.0, 0.0, "no requests on this route"
		if dd.n > 0 {
			p50 = dd.p50()
			p99, note = tailNote(dd)
			if math.IsNaN(p99) { // refused: fall back to the slowest sample
				p99 = dd.sorted[dd.n-1]
				note += "; max shown"
			}
		}
		rep.set("efesd."+r+"_ms.p50", p50, fmt.Sprintf("%d requests", dd.n))
		rep.set("efesd."+r+"_ms.p99", p99, note)
	}
	b, a := res.before, res.after
	rep.set("efesd.shed", float64(a.Shed-b.Shed), "")
	rep.set("efesd.degraded", float64(a.Degraded-b.Degraded), "")
	rep.set("profile.hit_ratio", ratio(a.ProfileHits-b.ProfileHits, a.ProfileMisses-b.ProfileMisses), "profileHits/(hits+misses), open phase")
	rep.set("persist.result_hit_ratio", ratio(a.ResultHits-b.ResultHits, a.ResultMisses-b.ResultMisses), "resultHits/(hits+misses), open phase")
	rep.set("persist.evictions", float64(a.Cache.Evictions-b.Cache.Evictions), "")
	rep.set("persist.bytes", float64(a.Cache.Bytes), "resident cache bytes after the open phase")
	late := lateness(res.times)
	lp, note := tailNote(late)
	if math.IsNaN(lp) {
		lp, note = late.sorted[late.n-1], note+"; max shown"
	}
	rep.set("loadgen.late_ms.p99", lp, note)
	rep.set("loadgen.backlog_max", float64(res.backlogMax), fmt.Sprintf("offered %g req/s over %d connections", spec.rate, runtime.NumCPU()))
	return nil
}

func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}
