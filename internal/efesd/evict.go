package efesd

// Scenario-store lifetime management. Uploaded scenarios hold whole
// parsed databases, so an unattended daemon accepting uploads forever
// would grow without bound — exactly the class of defect the growbound
// lint rule flags. The store is bounded two ways:
//
//   - an LRU cap (Config.MaxScenarios): an upload beyond the cap evicts
//     the least recently used scenario, ordered by a logical recency
//     counter so eviction needs no clock;
//   - an idle TTL (Config.ScenarioTTL + Config.Now): entries idle longer
//     than the TTL are expired lazily by the next lookup or listing.
//
// Evicted scenarios simply disappear from the store — a later request
// naming one gets 404 and re-uploads; the durable caches are content
// addressed, so the re-upload's profiles and results are still warm.
// Every scenario leaving the store (replaced by a new upload under its
// key, evicted by the LRU cap, or expired) is also dropped from the
// shared profiler's memo, which keys profiles by database instance and
// would otherwise keep every version ever uploaded alive.

// DefaultMaxScenarios bounds resident scenarios when Config.MaxScenarios
// is zero.
const DefaultMaxScenarios = 128

// maxScenarios resolves the configured cap; <= 0 means unbounded.
func (s *Server) maxScenarios() int {
	switch {
	case s.cfg.MaxScenarios > 0:
		return s.cfg.MaxScenarios
	case s.cfg.MaxScenarios < 0:
		return 0
	default:
		return DefaultMaxScenarios
	}
}

// touchLocked bumps an entry's logical recency and, when the server has
// a clock, its idle-TTL deadline. Caller holds s.mu.
func (s *Server) touchLocked(e *scenarioEntry) {
	s.scnSeq++
	e.seq = s.scnSeq
	if s.cfg.Now != nil {
		e.lastUsed = s.cfg.Now()
	}
}

// expiredLocked reports whether an entry has sat idle past the TTL.
// Caller holds s.mu.
func (s *Server) expiredLocked(e *scenarioEntry) bool {
	return s.cfg.ScenarioTTL > 0 && s.cfg.Now != nil &&
		s.cfg.Now().Sub(e.lastUsed) > s.cfg.ScenarioTTL
}

// sweepExpiredLocked evicts every TTL-expired entry and returns the
// evicted entries for release. Caller holds s.mu.
func (s *Server) sweepExpiredLocked() []*scenarioEntry {
	var gone []*scenarioEntry
	for key, e := range s.scenarios {
		if s.expiredLocked(e) {
			//lint:ignore detorder the entries are only released, and releasing distinct entries commutes
			gone = append(gone, s.removeLocked(key, e))
			s.evictedTTL.Add(1)
		}
	}
	return gone
}

// removeLocked deletes an entry from the store and marks it evicted, so
// the requests still using it release its profiles when they finish.
// Caller holds s.mu.
func (s *Server) removeLocked(key string, e *scenarioEntry) *scenarioEntry {
	delete(s.scenarios, key)
	e.evicted = true
	return e
}

// register stores an uploaded scenario (replacing any previous upload
// under the same key) and enforces the LRU cap: expired entries go
// first, then least recently used ones until the store fits. Every
// scenario that leaves the store is forgotten by the profiler.
func (s *Server) register(key string, e *scenarioEntry) {
	s.mu.Lock()
	gone := s.registerLocked(key, e)
	s.mu.Unlock()
	s.forget(gone...)
}

// registerLocked is register's store update; it returns the entries
// that left the store. Caller holds s.mu.
func (s *Server) registerLocked(key string, e *scenarioEntry) []*scenarioEntry {
	var gone []*scenarioEntry
	if old, ok := s.scenarios[key]; ok {
		gone = append(gone, s.removeLocked(key, old))
	}
	s.touchLocked(e)
	s.scenarios[key] = e
	max := s.maxScenarios()
	if max <= 0 || len(s.scenarios) <= max {
		return gone
	}
	gone = append(gone, s.sweepExpiredLocked()...)
	for len(s.scenarios) > max {
		var victim string
		var vseq int64
		for k, v := range s.scenarios {
			if victim == "" || v.seq < vseq {
				victim, vseq = k, v.seq
			}
		}
		gone = append(gone, s.removeLocked(victim, s.scenarios[victim]))
		s.evictedLRU.Add(1)
	}
	return gone
}

// forget drops the profiles of every database of the given scenarios
// from the shared profiler. Call it without holding s.mu.
func (s *Server) forget(entries ...*scenarioEntry) {
	for _, e := range entries {
		s.prof.Forget(e.scn.Target)
		for _, src := range e.scn.Sources {
			s.prof.Forget(src.DB)
		}
	}
}

// release ends a request's use of an entry. If the entry left the store
// while the request ran, the request may have profiled its databases
// after the eviction forgot them, so they are forgotten again.
func (s *Server) release(e *scenarioEntry) {
	s.mu.Lock()
	evicted := e.evicted
	s.mu.Unlock()
	if evicted {
		s.forget(e)
	}
}
