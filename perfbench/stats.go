package main

import (
	"math"
	"sort"
	"time"
)

// samples collects latencies of one statement class, in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d.Nanoseconds())/1e6) }

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest whole percentile that still has at least ten
// samples above it (nearest-rank definition), its value and whether the
// sample count supports one at all (it needs at least eleven samples).
// Capped at the 99th percentile.
func tail(xs []float64) (pct int, value float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	pct = 100 * (n - 10) / n
	if pct > 99 {
		pct = 99
	}
	rank := int(math.Ceil(float64(pct) * float64(n) / 100))
	if rank < 1 {
		rank = 1
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return pct, s[rank-1], true
}

// geomean of strictly positive values; 0 when any is not positive.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
