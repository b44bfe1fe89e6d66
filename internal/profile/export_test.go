package profile

import "encoding/json"

// EnvelopeJSON is the durable encoding of one profile — the bytes the
// Profiler writes to its store — for the external tests, which build
// scenarios (an import cycle for this package's own tests).
func EnvelopeJSON(stats *ColumnStats, incompatible int) ([]byte, error) {
	return json.Marshal(statsEnvelope{Stats: stats, Incompatible: incompatible})
}
