// Package stats implements the numerical substrate of the reproduction:
// descriptive statistics, the Box-Cox power transformation with
// maximum-likelihood λ estimation, z-score standardization, Pearson
// correlation, a chi-square test of independence (via the regularized
// incomplete gamma function), KL divergence, histograms and a small
// deterministic RNG facade.
//
// Everything is implemented from scratch on the standard library because
// the reproduction environment has no numerical third-party packages.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that need at least one observation.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n-1) sample variance, or 0 when n < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// PopulationVariance returns the biased (n) variance, or 0 when n == 0.
func PopulationVariance(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(n)
}

// Skewness returns the adjusted Fisher-Pearson sample skewness
// (g1 * sqrt(n(n-1))/(n-2)), or 0 when n < 3 or the variance is 0.
func Skewness(xs []float64) float64 {
	n := float64(len(xs))
	if n < 3 {
		return 0
	}
	m := Mean(xs)
	var m2, m3 float64
	for _, x := range xs {
		d := x - m
		m2 += d * d
		m3 += d * d * d
	}
	m2 /= n
	m3 /= n
	if m2 <= 0 {
		return 0
	}
	g1 := m3 / math.Pow(m2, 1.5)
	return g1 * math.Sqrt(n*(n-1)) / (n - 2)
}

// Min returns the minimum of xs; it panics on an empty slice.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs; it panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Extent returns the minimum and maximum of xs and reports whether xs was
// non-empty. It is the error-free counterpart of Min/Max for call sites
// that can see user-controlled (possibly empty) input.
func Extent(xs []float64) (min, max float64, ok bool) {
	if len(xs) == 0 {
		return 0, 0, false
	}
	min, max = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < min {
			min = x
		}
		if x > max {
			max = x
		}
	}
	return min, max, true
}

// NormalCDF returns Φ(z), the standard normal cumulative distribution
// function, computed via the complementary error function. The degradation
// ladder uses it to map a z-score from the Normalized method onto the
// [0, 1] percentile scale of the Reference-Based method.
func NormalCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}

// Median returns the median of xs (average of middle two for even n),
// or 0 for an empty slice. The input is not modified.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if n%2 == 1 {
		return cp[n/2]
	}
	return (cp[n/2-1] + cp[n/2]) / 2
}

// Quantile returns the q-th quantile (0<=q<=1) of xs using linear
// interpolation between order statistics, or 0 for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	cp := append([]float64(nil), xs...)
	sort.Float64s(cp)
	if q <= 0 {
		return cp[0]
	}
	if q >= 1 {
		return cp[n-1]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
}

// MAD returns the median absolute deviation of xs (a robust scale
// estimator), or 0 for an empty slice.
func MAD(xs []float64) float64 { return MADAbout(xs, Median(xs)) }

// MADAbout is MAD for a caller that already holds med = Median(xs): it
// skips sorting a copy of xs to find the median again.
func MADAbout(xs []float64, med float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return Median(dev)
}

// Pearson returns the Pearson correlation coefficient between xs and ys.
// It returns 0 when the slices differ in length, are shorter than 2, or
// either has zero variance.
func Pearson(xs, ys []float64) float64 {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := 0; i < n; i++ {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0
	}
	return sxy / math.Sqrt(sxx*syy)
}

// ZScores standardizes xs in place-free fashion: it returns
// (x - mean) / std for each x. When the standard deviation is zero the
// result is all zeros. The mean and std used are also returned.
func ZScores(xs []float64) (z []float64, mean, std float64) {
	mean = Mean(xs)
	std = StdDev(xs)
	z = make([]float64, len(xs))
	if std == 0 {
		return z, mean, std
	}
	for i, x := range xs {
		z[i] = (x - mean) / std
	}
	return z, mean, std
}

// ZScore standardizes a single observation against a given mean and std.
// A zero std yields 0.
func ZScore(x, mean, std float64) float64 {
	if std == 0 {
		return 0
	}
	return (x - mean) / std
}
