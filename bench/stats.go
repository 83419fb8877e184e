package main

import (
	"fmt"
	"math"
	"sort"
)

// quartiles returns the first quartile, median and third quartile of xs
// by the "exclusive" method of Python's statistics.quantiles(xs, n=4),
// so spreads computed here and by Python scripts over the JSON lines agree.
func quartiles(xs []float64) (q1, med, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := sortedCopy(xs)
	n := len(s)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// median is the middle quartile.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// best returns each request's fastest time over the rounds, where every
// round timed the same requests in the same order. The box the benchmark
// runs on slows down by up to 2x for seconds at a time, in spells the
// program does not cause; a request's fastest of several rounds spread over
// the run is its time outside those spells.
func best(rounds [][]float64) []float64 {
	if len(rounds) == 0 {
		return nil
	}
	out := append([]float64(nil), rounds[0]...)
	for _, r := range rounds[1:] {
		for i, x := range r {
			out[i] = math.Min(out[i], x)
		}
	}
	return out
}

// tail returns the nearest-rank p90 of xs, or the slowest sample when
// fewer than ten samples lie beyond p90, together with the percentile
// taken. Higher percentiles of a run's few hundred requests moved by up to
// 40% between identical runs on a 2-CPU box, too much to bound.
func tail(xs []float64) (value, pct float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(0.9*float64(n))) - 1
	if n-1-k < 10 {
		k = n - 1
	}
	return s[k], 100 * float64(k+1) / float64(n)
}

// tailNote names the percentile a tail value is.
func tailNote(pct float64, n int) string {
	if pct == 100 {
		return fmt.Sprintf("slowest of %d", n)
	}
	return fmt.Sprintf("p%.4g, %d samples beyond", pct, n-int(math.Round(pct*float64(n)/100)))
}

// percentile returns the nearest-rank q-quantile of xs (0 < q <= 1).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	k := int(math.Ceil(q*float64(len(s)))) - 1
	if k < 0 {
		k = 0
	}
	return s[k]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio divides, reading 0 when there is nothing to divide by (a layer
// the workload bypasses).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
