package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one benchmark op share
// Op; Parent is the id of the enclosing span, 0 at the op root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"startNs"`
	End    time.Duration `json:"endNs"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory; they are written out once, when the
// run ends, so no I/O lands inside a timed op. A nil recorder records
// nothing, which is how the untraced run calls the same code.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// opSpans records the spans of one op.
type opSpans struct {
	r  *recorder
	op int
}

func (r *recorder) op(id int) opSpans { return opSpans{r: r, op: id} }

// do runs fn inside a span named name under parent and returns the new
// span's id (0 when not recording).
func (o opSpans) do(parent int, name string, fn func(id int) error) error {
	if o.r == nil {
		return fn(0)
	}
	o.r.mu.Lock()
	id := len(o.r.spans) + 1
	o.r.spans = append(o.r.spans, span{ID: id, Parent: parent, Op: o.op, Name: name})
	o.r.mu.Unlock()
	start := time.Since(o.r.epoch)
	err := fn(id)
	end := time.Since(o.r.epoch)
	o.r.mu.Lock()
	o.r.spans[id-1].Start, o.r.spans[id-1].End = start, end
	o.r.mu.Unlock()
	return err
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) writeJSON(path string) error {
	data, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children may overlap each other (parallel calls) and
// may stick out of the parent; only their union inside the parent is
// subtracted.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	covered := time.Duration(0)
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			covered += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.hi - cur.lo
	}
	return parent.dur() - covered
}

// selfTimes returns, per op, the self time of every span name.
func selfTimes(spans []span) map[int]map[string]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := map[int]map[string]time.Duration{}
	for _, s := range spans {
		if out[s.Op] == nil {
			out[s.Op] = map[string]time.Duration{}
		}
		out[s.Op][s.Name] += selfTime(s, children[s.ID])
	}
	return out
}
