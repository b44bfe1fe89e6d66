package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"efes/internal/match"
)

// efesd is a running daemon child.
type efesd struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	cache  string
	// reader drains the child's stdout and then reaps it; waitErr is
	// its exit status, valid once reader is done.
	reader  sync.WaitGroup
	waitErr error
	once    sync.Once
}

// startEfesd launches the efesd binary on a free loopback port with a
// fresh durable cache under dir, private to this process, and waits for
// its ready line.
func startEfesd(bin, dir string, conns int) (*efesd, error) {
	cache := filepath.Join(dir, fmt.Sprintf("cache-%d", os.Getpid()))
	if err := os.RemoveAll(cache); err != nil {
		return nil, err
	}
	// -workers 1 keeps each request on one core, so the client's own
	// work and allocations stay out of the measured request path.
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0", "-cache-dir", cache, "-workers", "1")
	cmd.Stderr = io.Discard
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start efesd: %w", err)
	}
	d := &efesd{cmd: cmd, cache: cache}
	ready := make(chan string, 1) // one send: the reader never blocks on it
	d.reader.Add(1)
	go func() {
		defer d.reader.Done()
		sc := bufio.NewScanner(out)
		announced := false
		for sc.Scan() {
			if addr, ok := strings.CutPrefix(sc.Text(), "efesd: listening on "); ok && !announced {
				ready <- addr
				announced = true
			}
		}
		close(ready)
		d.waitErr = cmd.Wait()
	}()
	select {
	case addr, ok := <-ready:
		if !ok {
			d.reader.Wait()
			return nil, fmt.Errorf("efesd exited before listening: %v", d.waitErr)
		}
		d.base = "http://" + addr
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, fmt.Errorf("efesd did not report its address")
	}
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	return d, nil
}

// stop terminates the daemon, waits until it has exited and removes its
// cache; calls after the first do nothing.
func (d *efesd) stop() {
	d.once.Do(func() {
		if d.client != nil {
			d.client.CloseIdleConnections()
		}
		_ = d.cmd.Process.Signal(syscall.SIGTERM)
		kill := time.AfterFunc(15*time.Second, func() { _ = d.cmd.Process.Kill() })
		d.reader.Wait()
		kill.Stop()
		_ = os.RemoveAll(d.cache) // scratch: a failed removal only leaves files under the work directory
	})
}

// peakRSSMB is the daemon's high-water resident set (VmHWM).
func (d *efesd) peakRSSMB() (float64, error) { return vmHWM(d.cmd.Process.Pid) }

// vmHWM reads a process's peak resident set in MB from /proc.
func vmHWM(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for pid %d", pid)
}

// call posts body to path under a tenant and returns status, headers
// and body.
func (d *efesd) call(method, path, tenant string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	if tenant != "" {
		req.Header.Set("X-Efes-Tenant", tenant)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header, data, err
}

// daemonStatus is the subset of GET /v1/status the benchmark reads.
type daemonStatus struct {
	Shed          int64 `json:"shed"`
	ResultHits    int64 `json:"resultHits"`
	ResultMisses  int64 `json:"resultMisses"`
	Degraded      int64 `json:"degraded"`
	ProfileHits   int64 `json:"profileHits"`
	ProfileMisses int64 `json:"profileMisses"`
	Cache         *struct {
		Bytes     int64 `json:"bytes"`
		Evictions int64 `json:"evictions"`
	} `json:"cache"`
}

func (d *efesd) status() (daemonStatus, error) {
	var st daemonStatus
	code, _, body, err := d.call("GET", "/v1/status", "", nil)
	if err != nil {
		return st, err
	}
	if code != http.StatusOK {
		return st, fmt.Errorf("status: HTTP %d", code)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return st, err
	}
	if st.Cache == nil {
		return st, fmt.Errorf("status: no cache block")
	}
	return st, nil
}

// Routes of the daemon mix.
const (
	routeEstimate = iota
	routeUpload
	routeProfile
	routeMatch
	numRoutes
)

// poolEntry is one scenario the daemon serves, in several seeded
// versions ("slots"); uploading a slot replaces the resident version.
type poolEntry struct {
	name  string
	slots []*scenarioText
	// bodies are the pre-rendered upload requests of the slots.
	bodies [][]byte
	// cols are the corresponded columns /v1/profile requests ask for.
	cols []columnRef
}

// columnRef names one column a /v1/profile request asks for.
type columnRef struct{ db, table, column string }

// newPoolEntry makes a pool entry of rendered versions, renamed to
// name so that each upload replaces the previous version.
func newPoolEntry(name string, versions []*scenarioText) (*poolEntry, error) {
	e := &poolEntry{name: name}
	for _, v := range versions {
		st := *v
		st.Name = name
		body, err := st.uploadBody()
		if err != nil {
			return nil, err
		}
		e.slots = append(e.slots, &st)
		e.bodies = append(e.bodies, body)
	}
	for _, src := range e.slots[0].Sources {
		corrs, err := match.ParseText(strings.NewReader(src.Correspondences))
		if err != nil {
			return nil, err
		}
		for _, c := range corrs.AttributePairs() {
			e.cols = append(e.cols,
				columnRef{src.Name, c.SourceTable, c.SourceColumn},
				columnRef{"target", c.TargetTable, c.TargetColumn})
		}
	}
	return e, nil
}

// mixPlan is a seeded daemon load: the pool, how many tenants share it,
// and the route weights.
type mixPlan struct {
	pool    []*poolEntry
	tenants int
	// weights per route, summing to 1.
	weights [numRoutes]float64
}

// planned is one request of a load phase.
type planned struct {
	route   int
	tenant  int
	entry   int
	slot    int    // uploads: the slot uploaded
	quality string // estimates
	col     columnRef
}

// plan draws n requests. Routes follow the weights, tenants and
// entries a Zipf law, all in exact proportions: every seed gets the same
// composition (the rare costly requests, large uploads and misses, set
// the tail, and a count that varied by seed would move it), and the seed
// decides their order, qualities, columns and the uploaded versions.
func (m *mixPlan) plan(rng *rand.Rand, n int, nextSlot map[[2]int]int) []planned {
	tw, ew := zipfWeights(m.tenants), zipfWeights(len(m.pool))
	var cells []planned
	var weights []float64
	for r := 0; r < numRoutes; r++ {
		for t := range tw {
			for e := range ew {
				cells = append(cells, planned{route: r, tenant: t, entry: e})
				weights = append(weights, m.weights[r]*tw[t]*ew[e])
			}
		}
	}
	var out []planned
	for i, k := range apportion(weights, n) {
		for ; k > 0; k-- {
			out = append(out, cells[i])
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	for i := range out {
		p := &out[i]
		e := m.pool[p.entry]
		switch p.route {
		case routeEstimate:
			p.quality = [2]string{"low", "high"}[rng.Intn(2)]
		case routeUpload:
			k := [2]int{p.tenant, p.entry}
			nextSlot[k] = (nextSlot[k] + 1) % len(e.slots)
			p.slot = nextSlot[k]
		case routeProfile:
			p.col = e.cols[rng.Intn(len(e.cols))]
		case routeMatch:
			p.col.db = e.slots[0].Sources[0].Name
		}
	}
	return out
}

// zipfWeights are the shares of n ranks under a Zipf law with exponent
// 1.3: rank k gets (k+1)^-1.3.
func zipfWeights(n int) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for k := range w {
		w[k] = math.Pow(float64(k+1), -1.3)
		sum += w[k]
	}
	for k := range w {
		w[k] /= sum
	}
	return w
}

// apportion splits n items over weights (summing to 1) in whole
// numbers by the largest-remainder method, so the counts sum to n.
func apportion(weights []float64, n int) []int {
	counts := make([]int, len(weights))
	rem := make([]int, len(weights))
	left := n
	for i, w := range weights {
		counts[i] = int(w * float64(n))
		left -= counts[i]
		rem[i] = i
	}
	frac := func(i int) float64 { return weights[i]*float64(n) - float64(counts[i]) }
	sort.SliceStable(rem, func(a, b int) bool { return frac(rem[a]) > frac(rem[b]) })
	for i := 0; i < left; i++ {
		counts[rem[i%len(rem)]]++
	}
	return counts
}

// reqLog is what a request returned, kept for the checks after the run.
type reqLog struct {
	p      planned
	sent   time.Time
	done   time.Time
	status int
	hit    bool
	digest string
	body   []byte // profile and match bodies, checked after the run
	err    error
}

// uploadEvent records when a slot became resident for a (tenant, entry).
type uploadEvent struct {
	slot        int
	issued, end time.Time
	ok          bool
}

// mixRunner drives one daemon with a mixPlan and keeps every response
// for verification.
type mixRunner struct {
	d    *efesd
	plan *mixPlan

	mu      sync.Mutex
	uploads map[[2]int][]uploadEvent
	// keyLocks serialise uploads of one (tenant, entry), as one client
	// replacing its own scenario would, so resident versions follow
	// upload order.
	keyLocks map[[2]int]*sync.Mutex
}

func newMixRunner(d *efesd, plan *mixPlan) *mixRunner {
	return &mixRunner{d: d, plan: plan, uploads: map[[2]int][]uploadEvent{}, keyLocks: map[[2]int]*sync.Mutex{}}
}

func tenantName(t int) string { return fmt.Sprintf("tenant-%d", t) }

// uploadAll makes slot 0 of every entry resident for every tenant and
// estimates each once per quality, so the timed phase starts warm.
func (m *mixRunner) uploadAll() error {
	for t := 0; t < m.plan.tenants; t++ {
		for e := range m.plan.pool {
			l := m.do(planned{route: routeUpload, tenant: t, entry: e})
			if l.err != nil || l.status != http.StatusCreated {
				return fmt.Errorf("initial upload %s/%s: HTTP %d %v", tenantName(t), m.plan.pool[e].name, l.status, l.err)
			}
		}
	}
	for e := range m.plan.pool {
		for _, q := range []string{"low", "high"} {
			l := m.do(planned{route: routeEstimate, tenant: 0, entry: e, quality: q})
			if l.err != nil || l.status != http.StatusOK {
				return fmt.Errorf("warm estimate %s: HTTP %d %v", m.plan.pool[e].name, l.status, l.err)
			}
		}
	}
	return nil
}

// do sends one planned request.
func (m *mixRunner) do(p planned) reqLog {
	e := m.plan.pool[p.entry]
	tenant := tenantName(p.tenant)
	l := reqLog{p: p}
	var path string
	var body []byte
	switch p.route {
	case routeUpload:
		k := [2]int{p.tenant, p.entry}
		m.mu.Lock()
		lk := m.keyLocks[k]
		if lk == nil {
			lk = &sync.Mutex{}
			m.keyLocks[k] = lk
		}
		m.mu.Unlock()
		lk.Lock()
		defer lk.Unlock()
		path, body = "/v1/scenarios", e.bodies[p.slot]
	case routeEstimate:
		path, body = "/v1/estimate", mustJSON(map[string]string{"scenario": e.name, "quality": p.quality})
	case routeProfile:
		path, body = "/v1/profile", mustJSON(map[string]string{"scenario": e.name, "db": p.col.db, "table": p.col.table, "column": p.col.column})
	case routeMatch:
		path, body = "/v1/match", mustJSON(map[string]string{"scenario": e.name, "source": p.col.db})
	}
	l.sent = time.Now()
	code, hdr, resp, err := m.d.call("POST", path, tenant, body)
	l.done = time.Now()
	l.status, l.err = code, err
	switch p.route {
	case routeUpload:
		m.mu.Lock()
		k := [2]int{p.tenant, p.entry}
		m.uploads[k] = append(m.uploads[k], uploadEvent{slot: p.slot, issued: l.sent, end: l.done, ok: err == nil && code == http.StatusCreated})
		m.mu.Unlock()
	case routeEstimate:
		l.hit = hdr.Get("X-Efes-Cache") == "hit"
		sum := sha256.Sum256(resp)
		l.digest = hex.EncodeToString(sum[:])
	default:
		l.body = resp
	}
	return l
}

// residentSlots are the slots a request to (tenant, entry) sent at sent
// and answered at done may have seen: the slot resident when it was
// sent, and any whose upload overlapped it.
func (m *mixRunner) residentSlots(k [2]int, sent, done time.Time) []int {
	slots := []int{0}
	for _, u := range m.uploads[k] {
		if !u.ok {
			continue
		}
		switch {
		case u.end.Before(sent):
			slots = []int{u.slot}
		case u.issued.Before(done):
			slots = append(slots, u.slot)
		}
	}
	return slots
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}

// closedRequests is the fixed amount of work of the closed phase: about
// two to three seconds at saturation on a 2-CPU machine.
const closedRequests = 3000

// runPhases runs the open-loop phase at rate for openDur and then the
// closed-loop phase over closedRequests requests, stopping early at
// three times closedDur (0 skips it); it returns both phases' logs.
func (m *mixRunner) runPhases(ctx context.Context, seed int64, rate float64, openDur, closedDur time.Duration, conns int) (*mixResult, error) {
	rng := rand.New(rand.NewSource(seed))
	due := fixedRateSchedule(rng, rate, openDur)
	nextSlot := map[[2]int]int{}
	openPlan := m.plan.plan(rng, len(due), nextSlot)
	closedPlan := m.plan.plan(rng, closedRequests, nextSlot)

	before, err := m.d.status()
	if err != nil {
		return nil, err
	}
	res := &mixResult{open: make([]reqLog, len(due))}
	res.times, res.backlogMax = openLoop(due, conns, func(i int) { res.open[i] = m.do(openPlan[i]) })
	after, err := m.d.status()
	if err != nil {
		return nil, err
	}
	res.before, res.after = before, after
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if closedDur == 0 {
		closedPlan = nil
	}
	res.closed = make([]reqLog, len(closedPlan))
	n, elapsed := closedLoop(conns, len(closedPlan), 3*closedDur, func(i int) { res.closed[i] = m.do(closedPlan[i]) })
	res.closed, res.closedElapsed = res.closed[:n], elapsed
	return res, nil
}

// mixResult is the outcome of runPhases.
type mixResult struct {
	open          []reqLog
	times         []timing
	backlogMax    int
	before, after daemonStatus
	closed        []reqLog
	closedElapsed time.Duration
}
