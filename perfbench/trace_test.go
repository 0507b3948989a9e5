package main

import (
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeNestedSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		// A slice (0–100 ms) with a flush (10–20), a refresh (20–70)
		// that has a child of its own (30–40), and an alert evaluation
		// (70–80).
		{ID: 1, Name: "slice", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "flush", Start: 10 * ms, End: 20 * ms},
		{ID: 3, Parent: 1, Name: "refresh", Start: 20 * ms, End: 70 * ms},
		{ID: 4, Parent: 3, Name: "read", Start: 30 * ms, End: 40 * ms},
		{ID: 5, Parent: 1, Name: "evaluate", Start: 70 * ms, End: 80 * ms},
		// A span without children keeps its whole duration.
		{ID: 6, Name: "op", Start: 200 * ms, End: 210 * ms},
	}
	self := selfTimes(spans)
	want := map[int32]time.Duration{
		1: 100*ms - 70*ms, // children cover 10–80
		2: 10 * ms,
		3: 40 * ms,
		4: 10 * ms,
		5: 10 * ms,
		6: 10 * ms,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self = %v, want %v", id, self[id], w)
		}
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var nilTracer *Tracer
	if id := nilTracer.Begin("x", 0, 1); id != 0 {
		t.Fatalf("nil tracer returned span %d", id)
	}
	nilTracer.End(0, nil)

	tr := newTracer()
	root := tr.Begin("op", 0, 7)
	kid := tr.Begin("layer.Call", root, 7)
	tr.End(kid, map[string]int64{"rows": 3})
	tr.End(root, nil)
	spans := tr.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Op != 7 || spans[1].Counts["rows"] != 3 {
		t.Fatalf("spans = %+v", spans)
	}
	if spans[0].End < spans[1].End || spans[1].Start < spans[0].Start {
		t.Fatalf("child not inside parent: %+v", spans)
	}
	if got := sumCount(spans, "layer.Call", "rows"); got != 3 {
		t.Fatalf("sumCount = %d, want 3", got)
	}
	if err := tr.WriteFile(filepath.Join(t.TempDir(), "traces", "t.jsonl")); err != nil {
		t.Fatal(err)
	}
}
