package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile; with fewer, the tail is one or two outliers rather than a
// measured percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// xs: the smallest sample with at least p% of the samples at or below
// it. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), p)-1]
}

// nearestRank is the 1-based rank of the p-th percentile among n samples.
func nearestRank(n int, p float64) int {
	r := int(math.Ceil(p / 100 * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples ranked above the p-th percentile of n.
func beyond(n int, p float64) int { return n - nearestRank(n, p) }

// tail returns the p-th percentile of xs, or an error when fewer than
// minBeyond samples lie beyond it.
func tail(name string, xs []float64, p float64) (float64, error) {
	if b := beyond(len(xs), p); b < minBeyond {
		return 0, fmt.Errorf("%s: p%g of %d samples has only %d beyond it (need %d)", name, p, len(xs), b, minBeyond)
	}
	return percentile(xs, p), nil
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
