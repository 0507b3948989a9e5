package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// Span is one timed call from the benchmark into a layer's public
// function. Spans of one request, slice or campaign share Op; Parent is
// the ID of the enclosing span (0 = none). Counts are recorded when the
// span ends, at the same boundary as its time.
type Span struct {
	ID     int32            `json:"id"`
	Parent int32            `json:"parent,omitempty"`
	Op     int64            `json:"op"`
	Name   string           `json:"name"`
	Start  time.Duration    `json:"start_ns"`
	End    time.Duration    `json:"end_ns"`
	Counts map[string]int64 `json:"counts,omitempty"`
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// Tracer holds spans in memory until the run ends. A nil *Tracer is
// valid and records nothing, so untraced runs pay one nil check per
// boundary. Spans are recorded from one goroutine.
type Tracer struct {
	t0    time.Time
	spans []Span
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its ID.
func (t *Tracer) Begin(name string, parent int32, op int64) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	return id
}

// End closes span id, attaching counts (may be nil).
func (t *Tracer) End(id int32, counts map[string]int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	s := &t.spans[id-1]
	s.End, s.Counts = now, counts
}

// Spans returns a copy of the recorded spans.
func (t *Tracer) Spans() []Span {
	return append([]Span(nil), t.spans...)
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.Spans() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes maps each span ID to its self time: its duration minus the
// durations of its children.
func selfTimes(spans []Span) map[int32]time.Duration {
	out := make(map[int32]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] += s.Dur()
		if s.Parent != 0 {
			out[s.Parent] -= s.Dur()
		}
	}
	return out
}

// selfMs collects the self times, in ms, of every span with this name.
func selfMs(spans []Span, self map[int32]time.Duration, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(self[s.ID]))
		}
	}
	return out
}

// sumCount totals one count over every span with this name.
func sumCount(spans []Span, name, count string) int64 {
	var n int64
	for _, s := range spans {
		if s.Name == name {
			n += s.Counts[count]
		}
	}
	return n
}
