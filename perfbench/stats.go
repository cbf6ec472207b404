package main

import (
	"math"
	"sort"
)

// minTail is the number of samples a reported percentile must have
// beyond it: a p90 rests on at least ten slower samples, so it needs
// 100 or more samples in all.
const minTail = 10

// supports reports whether n samples carry percentile p (0 < p < 100)
// under the minTail rule.
func supports(n int, p float64) bool {
	return float64(n)*(1-p/100) >= minTail-1e-9
}

// highestSupported returns the highest of the given percentiles, which
// must be ascending, that n samples support, or false if none is.
func highestSupported(n int, ps []float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range ps {
		if supports(n, p) {
			best, ok = p, true
		}
	}
	return best, ok
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs (nearest-rank p50 of a sorted copy).
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

// quartiles returns the first and third quartile of xs with the
// exclusive method of Python's statistics.quantiles(n=4), which is how
// run-to-run spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// interval is a half-open time range in nanoseconds.
type interval struct{ start, end int64 }

// unionLen is the total length covered by ivs, counting overlaps once.
// Child spans recorded by two sweep workers overlap in time, so a
// parent's self time subtracts their union, not their sum.
func unionLen(ivs []interval) int64 {
	if len(ivs) == 0 {
		return 0
	}
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].start < s[j].start })
	var total int64
	cur := s[0]
	for _, iv := range s[1:] {
		if iv.start > cur.end {
			total += cur.end - cur.start
			cur = iv
			continue
		}
		if iv.end > cur.end {
			cur.end = iv.end
		}
	}
	return total + cur.end - cur.start
}

// clip restricts ivs to [lo, hi), dropping what falls outside.
func clip(ivs []interval, lo, hi int64) []interval {
	var out []interval
	for _, iv := range ivs {
		if iv.start < lo {
			iv.start = lo
		}
		if iv.end > hi {
			iv.end = hi
		}
		if iv.end > iv.start {
			out = append(out, iv)
		}
	}
	return out
}
