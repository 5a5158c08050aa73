package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before it is
// reported. With fewer, the "percentile" is a handful of outliers and does
// not repeat from run to run.
const minBeyond = 10

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample (mean of the middle two for an even count);
// 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-quantile of xs (0 < q < 1) and
// whether it may be reported: at least minBeyond samples rank above it.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sortedCopy(xs)[rank-1], n-rank >= minBeyond
}

// tailLevels are the percentiles a tail is reported at, highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.90, 0.75}

// tail returns the highest of tailLevels that has at least minBeyond
// samples beyond it, with its value; ok is false when even the lowest
// level has too few samples beyond it.
func tail(xs []float64) (level, v float64, ok bool) {
	for _, q := range tailLevels {
		if v, ok := percentile(xs, q); ok {
			return q, v, true
		}
	}
	return 0, 0, false
}

// backlogGrowing reports whether a queue grew over a rate rung, from the
// pickup delays (when a connection took each request, minus when it was
// due) in due order: the median delay of the last third of the requests
// exceeds twice the first third's plus backlogSlack. A queue that holds a
// steady depth keeps its delay; one that falls behind keeps adding to it.
func backlogGrowing(delays []time.Duration) bool {
	n := len(delays) / 3
	if n == 0 {
		return false
	}
	third := func(ds []time.Duration) float64 {
		xs := make([]float64, len(ds))
		for i, d := range ds {
			xs[i] = float64(d)
		}
		return median(xs)
	}
	first, last := third(delays[:n]), third(delays[len(delays)-n:])
	return last > 2*first+float64(backlogSlack)
}

// backlogSlack absorbs scheduler jitter on an idle queue: a last-third
// median pickup delay under this is never a growing backlog.
const backlogSlack = time.Millisecond

// quartileSpread is (Q3 - Q1) / median with Python's
// statistics.quantiles(n=4) "exclusive" method — the spread measure the
// benchmark's bounds are written against.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := sortedCopy(xs)
	q := func(p float64) float64 {
		pos := p * float64(n+1)
		j := int(math.Floor(pos))
		if j < 1 {
			return s[0]
		}
		if j >= n {
			return s[n-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / math.Abs(m)
}
