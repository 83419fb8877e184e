package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Normalize rescales a non-negative weight vector so it sums to 1.
// An all-zero or empty vector yields a uniform distribution of its length
// (empty stays empty).
func Normalize(ws []float64) []float64 {
	out := make([]float64, len(ws))
	sum := 0.0
	for _, w := range ws {
		if w > 0 {
			sum += w
		}
	}
	if sum == 0 {
		if len(ws) == 0 {
			return out
		}
		u := 1 / float64(len(ws))
		for i := range out {
			out[i] = u
		}
		return out
	}
	for i, w := range ws {
		if w > 0 {
			out[i] = w / sum
		}
	}
	return out
}

// KLDivergence returns the Kullback-Leibler divergence D(p || q) in nats,
// with additive smoothing eps applied to both distributions to keep the
// result finite when q has zero-probability cells. The slices must have
// equal length; a mismatch returns +Inf.
func KLDivergence(p, q []float64, eps float64) float64 {
	if len(p) != len(q) || len(p) == 0 {
		return math.Inf(1)
	}
	if eps <= 0 {
		eps = 1e-9
	}
	ps := smooth(p, eps)
	qs := smooth(q, eps)
	d := 0.0
	for i := range ps {
		d += ps[i] * math.Log(ps[i]/qs[i])
	}
	if d < 0 {
		// Guard against tiny negative values from floating-point error.
		d = 0
	}
	return d
}

func smooth(p []float64, eps float64) []float64 {
	out := make([]float64, len(p))
	sum := 0.0
	for i, v := range p {
		out[i] = v + eps
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// AlignedDistributions builds two equal-length probability vectors from two
// key->weight maps, aligning cells by key over the union of keys. Missing
// keys get weight zero (smoothing is the caller's concern; KLDivergence
// applies it). Keys are processed in sorted order so results are
// deterministic.
func AlignedDistributions(a, b map[string]float64) (pa, pb []float64) {
	keys := make([]string, 0, len(a)+len(b))
	seen := make(map[string]struct{}, len(a)+len(b))
	for k := range a {
		if _, ok := seen[k]; !ok {
			seen[k] = struct{}{}
			keys = append(keys, k)
		}
	}
	for k := range b {
		if _, ok := seen[k]; !ok {
			seen[k] = struct{}{}
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	pa = make([]float64, len(keys))
	pb = make([]float64, len(keys))
	for i, k := range keys {
		pa[i] = a[k]
		pb[i] = b[k]
	}
	return Normalize(pa), Normalize(pb)
}

// Reference is a histogram prepared once to be the second argument of
// AlignedDistributions for many first arguments: its keys in the sorted
// order AlignedDistributions gives the union, and its weights normalized
// in that order. Reference.KL then scores a histogram against it without
// building the union's map, its key slice or its sort. A Reference is
// immutable and safe for concurrent use.
type Reference struct {
	keys []string
	// p is Normalize of the weights in key order, or nil when they sum to
	// zero: Normalize then makes the reference uniform over the union,
	// whose size depends on the other histogram.
	p []float64
}

// NewReference prepares h as a reference histogram.
func NewReference(h map[string]float64) *Reference {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	ws := make([]float64, len(keys))
	sum := 0.0
	for i, k := range keys {
		ws[i] = h[k]
		if ws[i] > 0 {
			sum += ws[i]
		}
	}
	r := &Reference{keys: keys}
	if sum == 0 {
		return r
	}
	for i, w := range ws {
		if w > 0 {
			ws[i] = w / sum
		} else {
			ws[i] = 0
		}
	}
	r.p = ws
	return r
}

// outsideKey is a key of the scored histogram that the reference lacks,
// with the reference position it sorts before.
type outsideKey struct {
	key string
	at  int
	w   float64
}

// KL returns KLDivergence(AlignedDistributions(a, h), eps) for the
// histogram h the reference was prepared from, equal to the bit: it visits
// the union in the same order and repeats the same float operations. Keys
// of a are found by binary search. A key of a the reference lacks is
// merged into the order at its sorted place, so every input takes this
// path; only those keys, if any, are sorted per call.
func (r *Reference) KL(a map[string]float64, eps float64) float64 {
	n := len(r.keys)
	wa := make([]float64, n)
	var outside []outsideKey
	for k, w := range a {
		i, found := slices.BinarySearch(r.keys, k)
		if found {
			wa[i] = w
		} else {
			outside = append(outside, outsideKey{k, i, w})
		}
	}
	m := n + len(outside)
	if m == 0 {
		return math.Inf(1)
	}
	pb := r.p
	if len(outside) > 0 {
		// Rare: lay both sides out over the merged union.
		slices.SortFunc(outside, func(x, y outsideKey) int { return strings.Compare(x.key, y.key) })
		ma, mb := make([]float64, 0, m), make([]float64, 0, m)
		j := 0
		for i := 0; i <= n; i++ {
			for ; j < len(outside) && outside[j].at == i; j++ {
				ma = append(ma, outside[j].w)
				mb = append(mb, 0)
			}
			if i < n {
				ma = append(ma, wa[i])
				if pb != nil {
					mb = append(mb, pb[i])
				}
			}
		}
		wa = ma
		if pb != nil {
			pb = mb
		}
	}
	if pb == nil {
		pb = make([]float64, m)
		u := 1 / float64(m)
		for i := range pb {
			pb[i] = u
		}
	}
	return klNormalizing(wa, pb, eps)
}

// klNormalizing returns KLDivergence(Normalize(wa), pb, eps) for an
// already normalized pb, without materializing either intermediate
// vector: each cell's value is recomputed with the same operations
// Normalize and smooth apply, so the sums and the result match to the bit.
func klNormalizing(wa, pb []float64, eps float64) float64 {
	if eps <= 0 {
		eps = 1e-9
	}
	sumA := 0.0
	for _, w := range wa {
		if w > 0 {
			sumA += w
		}
	}
	uniform := 1 / float64(len(wa))
	sa, sb := 0.0, 0.0
	for i, w := range wa {
		sa += normalizedCell(w, sumA, uniform) + eps
		sb += pb[i] + eps
	}
	d := 0.0
	for i, w := range wa {
		ps := (normalizedCell(w, sumA, uniform) + eps) / sa
		qs := (pb[i] + eps) / sb
		d += ps * math.Log(ps/qs)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// Histogram is a fixed-width binned summary of a sample, used for the
// Figure-2 style before/after-normalization reports.
type Histogram struct {
	Lo, Hi float64
	Counts []int
	N      int
}

// NewHistogram bins xs into the given number of equal-width bins spanning
// [min, max]. bins must be >= 1; a degenerate range puts everything in
// bin 0.
func NewHistogram(xs []float64, bins int) (*Histogram, error) {
	if bins < 1 {
		return nil, fmt.Errorf("stats: histogram needs >=1 bins, got %d", bins)
	}
	if len(xs) == 0 {
		return nil, ErrEmpty
	}
	lo, hi := Min(xs), Max(xs)
	h := &Histogram{Lo: lo, Hi: hi, Counts: make([]int, bins), N: len(xs)}
	width := (hi - lo) / float64(bins)
	for _, x := range xs {
		var b int
		if width > 0 {
			b = int((x - lo) / width)
			if b >= bins {
				b = bins - 1
			}
			if b < 0 {
				b = 0
			}
		}
		h.Counts[b]++
	}
	return h, nil
}

// Render draws the histogram as fixed-width ASCII rows:
// "[lo, hi) count ###...". maxBar controls the widest bar.
func (h *Histogram) Render(maxBar int) string {
	if maxBar <= 0 {
		maxBar = 40
	}
	peak := 0
	for _, c := range h.Counts {
		if c > peak {
			peak = c
		}
	}
	var b strings.Builder
	width := (h.Hi - h.Lo) / float64(len(h.Counts))
	for i, c := range h.Counts {
		lo := h.Lo + float64(i)*width
		hi := lo + width
		bar := 0
		if peak > 0 {
			bar = c * maxBar / peak
		}
		fmt.Fprintf(&b, "[%10.3f, %10.3f) %6d %s\n", lo, hi, c, strings.Repeat("#", bar))
	}
	return b.String()
}

// normalizedCell is Normalize's output cell for weight w of a vector whose
// positive weights sum to sum, with uniform its all-zero fallback.
func normalizedCell(w, sum, uniform float64) float64 {
	if sum == 0 {
		return uniform
	}
	if w > 0 {
		return w / sum
	}
	return 0
}
