package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: a p99 from 200 samples is two samples, not a tail.
const minBeyond = 10

// tailLadder lists the percentiles tailPercentile may choose from.
var tailLadder = []float64{50, 90, 99, 99.9, 99.99}

// median returns the middle of xs, interpolating between the two middle
// values for an even count (Python's statistics.median). NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lastTenth returns the trailing tenth of xs, never fewer than lateMin
// values (or all of xs when it is shorter).
func lastTenth(xs []float64) []float64 {
	return xs[len(xs)-tenth(len(xs), lateMin):]
}

// firstTenth returns the leading tenth of xs, never fewer than three values.
func firstTenth(xs []float64) []float64 {
	return xs[:tenth(len(xs), 3)]
}

// lateMin is the fewest epochs late_epoch_ms is the median of. Epoch times
// count the CPU of every thread, so a garbage-collection cycle lands in
// whichever epoch it runs in: every three to eight epochs on these
// workloads. A median over fewer epochs than that can land on one.
const lateMin = 8

// tenth is a tenth of n, at least least and at most n.
func tenth(n, least int) int {
	return min(n, max(n/10, least))
}

// beyond returns how many of n samples lie strictly above the nearest-rank
// p-th percentile.
func beyond(n int, p float64) int {
	rank := int(math.Ceil(float64(n)*p/100 - 1e-9))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// percentile returns the nearest-rank p-th percentile of xs. It refuses a
// percentile with fewer than minBeyond samples above it, so a reported p99
// always rests on at least ten tail samples.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 || beyond(n, p) < minBeyond {
		return 0, fmt.Errorf("p%g needs %d samples beyond it; %d samples give %d", p, minBeyond, n, max(0, beyond(n, p)))
	}
	return sorted(xs)[n-beyond(n, p)-1], nil
}

// tail is a latency summary: the highest percentile the sample supports,
// its value and the sample count.
type tail struct {
	Pct   float64 `json:"pct"`
	Value float64 `json:"value"`
	N     int     `json:"n"`
}

// tailPercentile reports the highest percentile of tailLadder with at least
// minBeyond samples beyond it; ok is false when not even the median has.
func tailPercentile(xs []float64) (tail, bool) {
	for i := len(tailLadder) - 1; i >= 0; i-- {
		if v, err := percentile(xs, tailLadder[i]); err == nil {
			return tail{Pct: tailLadder[i], Value: v, N: len(xs)}, true
		}
	}
	return tail{N: len(xs)}, false
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
