package main

import (
	"strings"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("p%g = %v, want %v", tc.p, got, tc.want)
		}
	}
	// The input order must not matter and must not be disturbed.
	shuffled := []float64{40, 15, 50, 20, 35}
	if got := percentile(shuffled, 50); got != 35 {
		t.Errorf("p50 of shuffled = %v, want 35", got)
	}
	if shuffled[0] != 40 {
		t.Error("percentile sorted its input in place")
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	// 100 samples: p90 is rank 90, which leaves exactly 10 beyond it.
	got, err := tail("x", xs, 90)
	if err != nil || got != 90 {
		t.Fatalf("tail(100 samples, p90) = %v, %v; want 90, nil", got, err)
	}
	// 99 samples: rank 90 leaves only 9.
	if _, err := tail("x", xs[:99], 90); err == nil || !strings.Contains(err.Error(), "only 9 beyond") {
		t.Fatalf("tail(99 samples, p90) error = %v, want a too-few-beyond error", err)
	}
	// p99 needs 1000 samples.
	if b := beyond(999, 99); b >= minBeyond {
		t.Fatalf("beyond(999, p99) = %d, want < %d", b, minBeyond)
	}
	if b := beyond(1000, 99); b != minBeyond {
		t.Fatalf("beyond(1000, p99) = %d, want %d", b, minBeyond)
	}
}
