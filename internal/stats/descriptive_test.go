package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v, want 5", got)
	}
	// Unbiased variance of this classic sample is 32/7.
	if got := Variance(xs); !almostEq(got, 32.0/7.0, 1e-12) {
		t.Errorf("Variance = %v, want %v", got, 32.0/7.0)
	}
	if got := PopulationVariance(xs); !almostEq(got, 4, 1e-12) {
		t.Errorf("PopulationVariance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEq(got, math.Sqrt(32.0/7.0), 1e-12) {
		t.Errorf("StdDev = %v", got)
	}
}

func TestEmptyAndDegenerate(t *testing.T) {
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("empty/single-sample moments should be 0")
	}
	if Median(nil) != 0 || MAD(nil) != 0 {
		t.Error("empty median/MAD should be 0")
	}
	if Skewness([]float64{1, 2}) != 0 {
		t.Error("skewness needs n>=3")
	}
}

func TestMedianAndQuantile(t *testing.T) {
	odd := []float64{5, 1, 3}
	if got := Median(odd); got != 3 {
		t.Errorf("Median(odd) = %v", got)
	}
	even := []float64{4, 1, 3, 2}
	if got := Median(even); got != 2.5 {
		t.Errorf("Median(even) = %v", got)
	}
	xs := []float64{0, 10, 20, 30}
	if got := Quantile(xs, 0.5); got != 15 {
		t.Errorf("Quantile(0.5) = %v", got)
	}
	if Quantile(xs, 0) != 0 || Quantile(xs, 1) != 30 {
		t.Error("quantile extremes wrong")
	}
	if got := Quantile(xs, 0.25); !almostEq(got, 7.5, 1e-12) {
		t.Errorf("Quantile(0.25) = %v", got)
	}
	// Median must not mutate its input.
	if odd[0] != 5 {
		t.Error("Median mutated its input")
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 4}
	if Min(xs) != -1 || Max(xs) != 4 {
		t.Error("Min/Max wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("Min(empty) must panic")
		}
	}()
	Min(nil)
}

func TestMAD(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 4, 6, 9}
	// median = 2, |x-2| = {1,1,0,0,2,4,7}, median of that = 1.
	if got := MAD(xs); got != 1 {
		t.Errorf("MAD = %v, want 1", got)
	}
}

func TestSkewness(t *testing.T) {
	symmetric := []float64{1, 2, 3, 4, 5}
	if got := Skewness(symmetric); !almostEq(got, 0, 1e-12) {
		t.Errorf("skewness of symmetric sample = %v", got)
	}
	rightSkewed := []float64{1, 1, 1, 1, 10}
	if got := Skewness(rightSkewed); got <= 1 {
		t.Errorf("right-skewed sample should have strongly positive skewness, got %v", got)
	}
	leftSkewed := []float64{-10, 1, 1, 1, 1}
	if got := Skewness(leftSkewed); got >= -1 {
		t.Errorf("left-skewed sample should have strongly negative skewness, got %v", got)
	}
}

func TestPearson(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ysPos := []float64{2, 4, 6, 8}
	ysNeg := []float64{8, 6, 4, 2}
	if got := Pearson(xs, ysPos); !almostEq(got, 1, 1e-12) {
		t.Errorf("perfect positive r = %v", got)
	}
	if got := Pearson(xs, ysNeg); !almostEq(got, -1, 1e-12) {
		t.Errorf("perfect negative r = %v", got)
	}
	if got := Pearson(xs, []float64{5, 5, 5, 5}); got != 0 {
		t.Errorf("zero-variance r = %v", got)
	}
	if got := Pearson(xs, []float64{1, 2}); got != 0 {
		t.Errorf("length mismatch r = %v", got)
	}
}

func TestPearsonBounds(t *testing.T) {
	f := func(xs []float64) bool {
		if len(xs) < 3 {
			return true
		}
		ys := make([]float64, len(xs))
		for i, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e100 {
				return true // sums would overflow; not a correlation bug
			}
			ys[i] = x*0.5 + float64(i%3)
		}
		r := Pearson(xs, ys)
		return r >= -1.0000001 && r <= 1.0000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestZScores(t *testing.T) {
	xs := []float64{10, 20, 30}
	z, mean, std := ZScores(xs)
	if mean != 20 {
		t.Errorf("mean = %v", mean)
	}
	if !almostEq(z[0], -1, 1e-12) || !almostEq(z[2], 1, 1e-12) || !almostEq(z[1], 0, 1e-12) {
		t.Errorf("z = %v", z)
	}
	if got := ZScore(25, mean, std); !almostEq(got, 0.5, 1e-12) {
		t.Errorf("ZScore(25) = %v", got)
	}
	// Constant series: all zeros.
	z2, _, std2 := ZScores([]float64{7, 7, 7})
	if std2 != 0 || z2[0] != 0 {
		t.Error("constant series must standardize to zeros")
	}
	if ZScore(9, 7, 0) != 0 {
		t.Error("ZScore with zero std must be 0")
	}
}

func TestZScoresMeanZeroStdOneProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e9 {
				xs = append(xs, x)
			}
		}
		if len(xs) < 3 || StdDev(xs) == 0 {
			return true
		}
		z, _, _ := ZScores(xs)
		return almostEq(Mean(z), 0, 1e-9) && almostEq(StdDev(z), 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// sortedMedian is the sort-based median Median must equal.
func sortedMedian(xs []float64) float64 {
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

// sortedMADAbout is the sort-based MADAbout.
func sortedMADAbout(xs []float64, med float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return sortedMedian(dev)
}

// sameValue reports equal values, every NaN equal to every other; -0
// equals +0, as the order Median selects by does not tell them apart.
func sameValue(x, y float64) bool {
	return x == y || (math.IsNaN(x) && math.IsNaN(y))
}

// TestMedianMatchesSort checks the selecting Median and MADAbout against
// the sort-based formulas on samples full of ties, signed zeros,
// infinities and NaNs, at every length up to 40 and a few long ones.
func TestMedianMatchesSort(t *testing.T) {
	rng := NewRNG(22)
	pool := []float64{0, math.Copysign(0, -1), 1, -1, 2.5, 1e300, -1e300,
		math.Inf(1), math.Inf(-1), math.NaN(), 5e-324}
	draw := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return pool[rng.Intn(len(pool))]
		case 1:
			return float64(rng.Intn(4)) // heavy ties
		default:
			return rng.NormFloat64()
		}
	}
	check := func(xs []float64) {
		t.Helper()
		in := append([]float64(nil), xs...)
		med := Median(xs)
		if want := sortedMedian(xs); !sameValue(med, want) {
			t.Fatalf("Median(%v) = %v, sort gives %v", xs, med, want)
		}
		for i := range xs {
			if math.Float64bits(xs[i]) != math.Float64bits(in[i]) {
				t.Fatalf("Median reordered its input %v", in)
			}
		}
		if got, want := MADAbout(xs, med), sortedMADAbout(xs, med); !sameValue(got, want) {
			t.Fatalf("MADAbout(%v, %v) = %v, sort gives %v", xs, med, got, want)
		}
	}
	for n := 0; n <= 40; n++ {
		for trial := 0; trial < 200; trial++ {
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = draw()
			}
			check(xs)
		}
	}
	for _, n := range []int{1000, 4097} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = draw()
		}
		check(xs)
		sort.Float64s(xs)
		check(xs) // ascending
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			xs[i], xs[j] = xs[j], xs[i]
		}
		check(xs) // descending
		for i := range xs {
			xs[i] = 7
		}
		check(xs) // all equal
	}
}
