package main

import (
	"strings"
	"testing"
)

func TestMatchManifest(t *testing.T) {
	man := &manifest{
		EndToEnd: []manifestMetric{{"setup_s", "s"}, {"ops_per_s", "1/s"}},
		PerLayer: []manifestMetric{{"lake.import_ms", "ms"}, {"query.scan.execute_ms", "ms"}},
	}
	newBench := func(trace bool, ms map[string]metric) *bench {
		return &bench{trace: trace, manifest: man, metrics: ms, meta: map[string]any{}}
	}

	b := newBench(false, map[string]metric{"setup_s": {1, "s"}, "ops_per_s": {2, "1/s"}})
	if err := b.matchManifest(); err != nil {
		t.Fatalf("complete end-to-end result: %v", err)
	}

	for _, tc := range []struct {
		name string
		ms   map[string]metric
		want string
	}{
		{"missing", map[string]metric{"setup_s": {1, "s"}}, "ops_per_s was not measured"},
		{"unit", map[string]metric{"setup_s": {1, "ms"}, "ops_per_s": {2, "1/s"}}, "setup_s is in ms"},
		{"extra", map[string]metric{"setup_s": {1, "s"}, "ops_per_s": {2, "1/s"}, "qps": {3, "1/s"}}, "qps is not in"},
	} {
		err := newBench(false, tc.ms).matchManifest()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}

	// A traced run reports a layer its workload never calls as 0.
	b = newBench(true, map[string]metric{"lake.import_ms": {5, "ms"}})
	if err := b.matchManifest(); err != nil {
		t.Fatalf("traced result: %v", err)
	}
	if got := b.metrics["query.scan.execute_ms"]; got != (metric{0, "ms"}) {
		t.Errorf("idle layer metric = %v, want 0 ms", got)
	}
	if idle, _ := b.meta["idle_layer_metrics"].([]string); len(idle) != 1 || idle[0] != "query.scan.execute_ms" {
		t.Errorf("idle_layer_metrics = %v", b.meta["idle_layer_metrics"])
	}
}
