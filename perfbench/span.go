package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Start and End are offsets from the
// recorder's creation; Parent is the id of the enclosing span, or -1.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory for the whole traced run; they are written
// out once, when the run ends, so recording costs a clock read and an
// append.
type recorder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// start opens a span under parent (-1 for a root) and returns its id.
func (r *recorder) start(name string, parent int) int {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans), Parent: parent, Name: name, Start: now, End: -1})
	return len(r.spans) - 1
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	now := time.Since(r.t0)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id].End = now
	return r.spans[id].dur()
}

// timed records fn as span name under parent and returns its duration.
func (r *recorder) timed(name string, parent int, fn func() error) (time.Duration, error) {
	id := r.start(name, parent)
	err := fn()
	return r.end(id), err
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line, each with its self time.
func (r *recorder) writeJSONL(w io.Writer) error {
	spans := r.snapshot()
	self := selfTimes(spans)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		rec := struct {
			span
			Self time.Duration `json:"self_ns"`
		}{s, self[s.ID]}
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes returns each span's duration minus the part of its interval
// covered by its direct children. Children may overlap one another (work
// fanned out in parallel) or stick out of the parent; only the union of
// their intervals, clipped to the parent, is subtracted, so self time is
// never negative and never double-subtracts.
func selfTimes(spans []span) map[int]time.Duration {
	byID := make(map[int]span, len(spans))
	kids := make(map[int][]span)
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the intervals.
func covered(lo, hi time.Duration, ivs []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var cl []iv
	for _, s := range ivs {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			cl = append(cl, iv{a, b})
		}
	}
	sort.Slice(cl, func(i, j int) bool { return cl[i].a < cl[j].a })
	var total time.Duration
	curA, curB := time.Duration(0), time.Duration(-1)
	for _, c := range cl {
		if c.a > curB {
			if curB > curA {
				total += curB - curA
			}
			curA, curB = c.a, c.b
			continue
		}
		curB = max(curB, c.b)
	}
	if curB > curA {
		total += curB - curA
	}
	return total
}
