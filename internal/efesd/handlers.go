package efesd

// The daemon's endpoint handlers. Every handler is synchronous (no `go`
// statements — concurrency belongs to net/http and the framework's
// worker pool) and threads the request context into every
// cancellation-aware callee.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"efes/internal/core"
	"efes/internal/effort"
	"efes/internal/match"
	"efes/internal/persist"
	"efes/internal/profile"
	"efes/internal/relational"
)

// dbSpec is an uploaded database: a schema declaration in the
// relational.ParseSchemaText format plus per-table CSV bodies in the
// relational.ReadCSV format.
type dbSpec struct {
	Schema string            `json:"schema"`
	Tables map[string]string `json:"tables"`
}

// sourceSpec is one uploaded source.
type sourceSpec struct {
	Name string `json:"name"`
	dbSpec
	// Correspondences is the line-oriented match.ParseText format.
	Correspondences string `json:"correspondences,omitempty"`
	// Discover runs the schema matcher instead of (or in addition to)
	// explicit correspondences.
	Discover bool `json:"discover,omitempty"`
}

// uploadRequest is the POST /v1/scenarios body.
type uploadRequest struct {
	Name    string       `json:"name"`
	Target  dbSpec       `json:"target"`
	Sources []sourceSpec `json:"sources"`
}

// uploadResponse echoes the registered scenario.
type uploadResponse struct {
	Name string `json:"name"`
	// Hash is the scenario's content address: the same data uploaded to
	// any efes process derives the same hash, which is what lets the
	// durable result cache serve warm answers across restarts.
	Hash    string `json:"hash"`
	Sources int    `json:"sources"`
	// Correspondences counts all correspondences over all sources.
	Correspondences int `json:"correspondences"`
}

// maxBody bounds a request body in bytes: well above a paper-scale
// upload (the running example's ~10 MB of CSV, JSON encoded), small
// enough that one client cannot make the daemon buffer an unbounded body.
const maxBody = 64 << 20

// decodeBody decodes the JSON request body into v, reading at most
// maxBody bytes of it; a body declared longer is refused unread. On
// failure it writes the error response, 413 for a body over the cap and
// 400 for any other decode error, and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	var err error
	if r.ContentLength > maxBody {
		err = &http.MaxBytesError{Limit: maxBody}
	} else {
		err = json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBody)).Decode(v)
	}
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooLarge):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
	default:
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
	}
	return false
}

// loadDB materializes an uploaded database. Tables load in sorted name
// order — the map iteration order must not leak anywhere.
func loadDB(spec dbSpec) (*relational.Database, error) {
	schema, err := relational.ParseSchemaText(spec.Schema)
	if err != nil {
		return nil, err
	}
	db := relational.NewDatabase(schema)
	names := make([]string, 0, len(spec.Tables))
	for name := range spec.Tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := db.ReadCSV(name, strings.NewReader(spec.Tables[name])); err != nil {
			return nil, err
		}
	}
	return db, nil
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	var req uploadRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Name == "" {
		writeError(w, http.StatusBadRequest, "scenario name is required")
		return
	}
	target, err := loadDB(req.Target)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("target: %v", err))
		return
	}
	scn := &core.Scenario{Name: req.Name, Target: target}
	corrCount := 0
	for _, src := range req.Sources {
		db, err := loadDB(src.dbSpec)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("source %s: %v", src.Name, err))
			return
		}
		corrs := &match.Set{}
		if src.Correspondences != "" {
			corrs, err = match.ParseText(strings.NewReader(src.Correspondences))
			if err != nil {
				writeError(w, http.StatusBadRequest, fmt.Sprintf("source %s: %v", src.Name, err))
				return
			}
		}
		if src.Discover {
			for _, c := range match.NewMatcher().Match(db, target).All {
				corrs.All = append(corrs.All, c)
			}
		}
		scn.Sources = append(scn.Sources, &core.Source{Name: src.Name, DB: db, Correspondences: corrs})
		corrCount += len(corrs.All)
	}
	if err := scn.Validate(); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	hash, err := persist.ScenarioHash(scn)
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("hash scenario: %v", err))
		return
	}
	s.register(tenant(r)+"\x00"+req.Name, &scenarioEntry{scn: scn, hash: hash})
	writeJSON(w, http.StatusCreated, uploadResponse{
		Name: req.Name, Hash: hash, Sources: len(scn.Sources), Correspondences: corrCount,
	})
}

// scenarioInfo is one row of GET /v1/scenarios.
type scenarioInfo struct {
	Name    string `json:"name"`
	Hash    string `json:"hash"`
	Sources int    `json:"sources"`
}

func (s *Server) handleListScenarios(w http.ResponseWriter, r *http.Request) {
	prefix := tenant(r) + "\x00"
	s.mu.Lock()
	gone := s.sweepExpiredLocked()
	infos := make([]scenarioInfo, 0, len(s.scenarios))
	for key, e := range s.scenarios {
		if name, ok := strings.CutPrefix(key, prefix); ok {
			infos = append(infos, scenarioInfo{Name: name, Hash: e.hash, Sources: len(e.scn.Sources)})
		}
	}
	s.mu.Unlock()
	s.forget(gone...)
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	writeJSON(w, http.StatusOK, map[string]any{"scenarios": infos})
}

// estimateRequest is the POST /v1/estimate body. Unset policy fields
// inherit the server's defaults.
type estimateRequest struct {
	Scenario string `json:"scenario"`
	// Quality is "low" (low effort) or "high" (high quality, default).
	Quality string `json:"quality,omitempty"`
	// TimeoutMs bounds the whole request; 0 inherits the server default.
	TimeoutMs int `json:"timeoutMs,omitempty"`
	// ModuleTimeoutMs bounds one detector attempt.
	ModuleTimeoutMs int `json:"moduleTimeoutMs,omitempty"`
	// Retries overrides the per-module retry budget.
	Retries *int `json:"retries,omitempty"`
	// BackoffMs is the wait before the first retry.
	BackoffMs int `json:"backoffMs,omitempty"`
	// BestEffort overrides the degradation mode.
	BestEffort *bool `json:"bestEffort,omitempty"`
	// NoCache bypasses the durable result cache for this request (it
	// still profiles through the durable stats store).
	NoCache bool `json:"noCache,omitempty"`
}

// parseQuality maps the wire quality to effort.Quality.
func parseQuality(q string) (effort.Quality, error) {
	switch q {
	case "", "high":
		return effort.HighQuality, nil
	case "low":
		return effort.LowEffort, nil
	default:
		return 0, fmt.Errorf("unknown quality %q (want \"low\" or \"high\")", q)
	}
}

// requestPolicy derives the per-request resilience policy from the
// server defaults and the request overrides.
func (s *Server) requestPolicy(req estimateRequest) core.Resilience {
	pol := s.cfg.Resilience.policy()
	if req.ModuleTimeoutMs > 0 {
		pol.ModuleTimeout = time.Duration(req.ModuleTimeoutMs) * time.Millisecond
	}
	if req.Retries != nil {
		pol.Retries = *req.Retries
	}
	if req.BackoffMs > 0 {
		pol.Backoff = time.Duration(req.BackoffMs) * time.Millisecond
	}
	if req.BestEffort != nil {
		pol.BestEffort = *req.BestEffort
	}
	return pol
}

func (s *Server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req estimateRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	q, err := parseQuality(req.Quality)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	entry, ok := s.lookup(r, req.Scenario)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown scenario %q", req.Scenario))
		return
	}
	defer s.release(entry)
	// The key carries the profiler's mode fingerprint: an approx-mode
	// daemon and an exact-mode consumer of the same cache directory can
	// never serve each other's entries.
	key := persist.ResultKey(entry.hash, q, s.cfgPrint, s.prof.Mode())
	if s.cache != nil && !req.NoCache {
		if data, ok := s.cache.Get("results", key); ok {
			s.resultHits.Add(1)
			w.Header().Set("Content-Type", "application/json")
			w.Header().Set("X-Efes-Cache", "hit")
			w.Write(data)
			return
		}
	}
	s.resultMisses.Add(1)

	pol := s.requestPolicy(req)
	ctx := r.Context()
	timeout := s.cfg.RequestTimeout
	if req.TimeoutMs > 0 {
		timeout = time.Duration(req.TimeoutMs) * time.Millisecond
	}
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, err := s.fw.WithResilience(pol).EstimateContext(ctx, entry.scn, q)
	if err != nil {
		// The request deadline expired but the client is still there: a
		// best-effort service still owes an answer — the all-fallback
		// baseline estimate, clearly marked degraded, never a 500.
		if errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil && pol.BestEffort {
			res, ferr := s.fw.FallbackResult(entry.scn, q, context.DeadlineExceeded)
			if ferr != nil {
				writeError(w, http.StatusInternalServerError, ferr.Error())
				return
			}
			s.fallbacks.Add(1)
			s.degraded.Add(1)
			s.writeResult(w, res, key, true)
			return
		}
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	if res.Degraded() {
		s.degraded.Add(1)
	}
	s.writeResult(w, res, key, !req.NoCache)
}

// writeResult serves a freshly computed Result and — when it is clean
// and a durable cache is configured — persists its exact bytes, so a
// later warm hit is byte-identical to this response. Degraded results
// are never persisted: they reflect a transient failure, not the data.
// Every estimate response flows through here (including the best-effort
// fallback path), so the approximate-mode marker below ends up in every
// served — and every cached — body.
func (s *Server) writeResult(w http.ResponseWriter, res *core.Result, key string, cacheable bool) {
	if mode := s.prof.Mode(); mode == profile.ModeApprox {
		res.ProfileMode = mode.String()
	}
	data, err := res.JSON()
	if err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Sprintf("encode result: %v", err))
		return
	}
	data = append(data, '\n')
	if s.cache != nil && cacheable && !res.Degraded() {
		s.cache.Put("results", key, data)
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Efes-Cache", "miss")
	if res.Degraded() {
		w.Header().Set("X-Efes-Degraded", "1")
	}
	w.Write(data)
}

// profileRequest is the POST /v1/profile body.
type profileRequest struct {
	Scenario string `json:"scenario"`
	// DB selects the database: "target" or a source name.
	DB     string `json:"db"`
	Table  string `json:"table"`
	Column string `json:"column"`
	// Mode overrides the server's profiling mode for this request:
	// "exact" or "approx". The ?mode= query parameter and the
	// X-Efes-Profile-Mode header are equivalent spellings; the body
	// field wins when several are set.
	Mode string `json:"mode,omitempty"`
}

// requestProfileMode resolves the profiling mode of one profile request:
// body field, then ?mode= query parameter, then X-Efes-Profile-Mode
// header, then the server default. An unknown spelling is a 400, never a
// silent fallback to a different precision than the client asked for.
func (s *Server) requestProfileMode(r *http.Request, body string) (profile.Mode, error) {
	spelling := body
	if spelling == "" {
		spelling = r.URL.Query().Get("mode")
	}
	if spelling == "" {
		spelling = r.Header.Get("X-Efes-Profile-Mode")
	}
	if spelling == "" {
		return s.prof.Mode(), nil
	}
	return profile.ParseMode(spelling)
}

// resolveDB finds the requested database within a scenario.
func resolveDB(e *scenarioEntry, name string) (*relational.Database, bool) {
	if name == "" || name == "target" {
		return e.scn.Target, true
	}
	for _, src := range e.scn.Sources {
		if src.Name == name {
			return src.DB, true
		}
	}
	return nil, false
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	var req profileRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	entry, ok := s.lookup(r, req.Scenario)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown scenario %q", req.Scenario))
		return
	}
	defer s.release(entry)
	db, ok := resolveDB(entry, req.DB)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown database %q", req.DB))
		return
	}
	mode, err := s.requestProfileMode(r, req.Mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	stats, err := s.prof.ColumnContextMode(r.Context(), db, req.Table, req.Column, mode)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if mode == profile.ModeApprox {
		s.profileApprox.Add(1)
	} else {
		s.profileExact.Add(1)
	}
	// Echo the served mode so clients can assert they got the precision
	// they asked for; approximate bodies additionally carry the Approx
	// error-bound marker.
	w.Header().Set("X-Efes-Profile-Mode", mode.String())
	writeJSON(w, http.StatusOK, stats)
}

// matchRequest is the POST /v1/match body.
type matchRequest struct {
	Scenario string `json:"scenario"`
	// Source selects the source database to match against the target.
	Source string `json:"source"`
}

func (s *Server) handleMatch(w http.ResponseWriter, r *http.Request) {
	var req matchRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	entry, ok := s.lookup(r, req.Scenario)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown scenario %q", req.Scenario))
		return
	}
	defer s.release(entry)
	db, ok := resolveDB(entry, req.Source)
	if !ok || req.Source == "" || req.Source == "target" {
		writeError(w, http.StatusNotFound, fmt.Sprintf("unknown source %q", req.Source))
		return
	}
	set := match.NewMatcher().Match(db, entry.scn.Target)
	var buf bytes.Buffer
	if err := set.WriteText(&buf); err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"count": len(set.All),
		"text":  buf.String(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// statusResponse is the GET /v1/status body: one self-describing
// snapshot of the daemon's request, profiler, and cache counters.
type statusResponse struct {
	Draining  bool  `json:"draining"`
	Scenarios int   `json:"scenarios"`
	InFlight  int64 `json:"inflight"`
	Admitted  int64 `json:"admitted"`
	Shed      int64 `json:"shed"`
	Panics    int64 `json:"panics"`

	ResultHits   int64 `json:"resultHits"`
	ResultMisses int64 `json:"resultMisses"`
	Degraded     int64 `json:"degraded"`
	Fallbacks    int64 `json:"fallbacks"`

	// Scenario-store eviction counters (see evict.go): scenarios
	// dropped by the LRU cap and by idle-TTL expiry.
	ScenariosEvictedLRU int64 `json:"scenariosEvictedLRU"`
	ScenariosEvictedTTL int64 `json:"scenariosEvictedTTL"`

	ProfileHits     int64 `json:"profileHits"`
	ProfileMisses   int64 `json:"profileMisses"`
	ProfileDiskHits int64 `json:"profileDiskHits"`
	ProfileComputes int64 `json:"profileComputes"`
	// Per-mode /v1/profile request counters.
	ProfileExact  int64 `json:"profileExact"`
	ProfileApprox int64 `json:"profileApprox"`

	Cache *persist.Stats `json:"cache,omitempty"`
}

func (s *Server) handleStatus(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	gone := s.sweepExpiredLocked()
	scenarios := len(s.scenarios)
	s.mu.Unlock()
	s.forget(gone...)
	hits, misses := s.prof.Counters()
	diskHits, computes := s.prof.DiskCounters()
	resp := statusResponse{
		Draining:            s.draining.Load(),
		Scenarios:           scenarios,
		InFlight:            s.inflight.Load(),
		Admitted:            s.admitted.Load(),
		Shed:                s.shed.Load(),
		Panics:              s.panics.Load(),
		ResultHits:          s.resultHits.Load(),
		ResultMisses:        s.resultMisses.Load(),
		Degraded:            s.degraded.Load(),
		Fallbacks:           s.fallbacks.Load(),
		ScenariosEvictedLRU: s.evictedLRU.Load(),
		ScenariosEvictedTTL: s.evictedTTL.Load(),
		ProfileHits:         hits,
		ProfileMisses:       misses,
		ProfileDiskHits:     diskHits,
		ProfileComputes:     computes,
		ProfileExact:        s.profileExact.Load(),
		ProfileApprox:       s.profileApprox.Load(),
	}
	if s.cache != nil {
		st := s.cache.Stats()
		resp.Cache = &st
	}
	writeJSON(w, http.StatusOK, resp)
}
