package main

import (
	"math"
	"sort"
)

// percentileLadder lists the percentiles the benchmark may report, lowest
// first.
var percentileLadder = []float64{50, 90, 95, 99, 99.9}

// minTail is how many samples must lie beyond a percentile before it is
// reported: a tail estimate resting on fewer is noise.
const minTail = 10

// tail is a percentile read from a sample set, with the set size it rests
// on.
type tail struct {
	P     float64 // the percentile actually read
	Value float64
	N     int
}

// highestSupported returns the highest ladder percentile with at least
// minTail of n samples beyond it, or 0 when even the median is not
// supported.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if n-rank(p, n) >= minTail {
			best = p
		}
	}
	return best
}

// rank is the 1-based nearest-rank position of percentile p among n
// sorted samples. The small slack keeps p·n/100 from rounding up past an
// exact integer (99.9·10000/100 is 9990.000000000002 in floating point).
func rank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return max(r, 1)
}

// tailAt reads percentile want from xs, falling back to the highest
// supported percentile below it when the sample is too small; P says which
// percentile was read. With no supported percentile it reads the median,
// the most robust figure a small sample offers.
func tailAt(xs []float64, want float64) tail {
	p := math.Min(want, highestSupported(len(xs)))
	if p == 0 {
		p = 50
	}
	return tail{P: p, Value: percentile(xs, p), N: len(xs)}
}

// percentile returns the nearest-rank percentile p (0 < p <= 100) of xs,
// or 0 for an empty set. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(p, len(s))-1]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), or 0 for an empty set.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the arithmetic mean of xs, or 0 for an empty set.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
