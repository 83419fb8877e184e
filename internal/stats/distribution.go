package stats

import (
	"fmt"
	"math"
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

// IDHist is a histogram over a dictionary, a slice of distinct keys in
// ascending byte order such as dataset.Column.Dict. IDs ascend, so the
// keys Dict[IDs[i]] ascend too, and Weights[i] is the weight of
// Dict[IDs[i]]. An IDHist is read-only once built.
type IDHist struct {
	Dict    []string
	IDs     []uint32
	Weights []float64
}

// Len returns the number of keys in the histogram.
func (h *IDHist) Len() int { return len(h.IDs) }

// Key returns the histogram's i-th key, Dict[IDs[i]].
func (h *IDHist) Key(i int) string { return h.Dict[h.IDs[i]] }

// Reference is a histogram prepared once to be the second argument of
// AlignedDistributions for many first arguments: its keys in the sorted
// order AlignedDistributions gives the union, and its weights normalized
// in that order. Reference.KL then scores a histogram against it without
// building the union's map, its key slice or its sort. A Reference is
// immutable and safe for concurrent use.
type Reference struct {
	// dict and ids are the keys of the histogram it was prepared from, in
	// ascending order; pos[id] is the position of dict[id] among them, or
	// -1 when the histogram lacks it.
	dict []string
	ids  []uint32
	pos  []int32
	// p is Normalize of the weights in key order, or nil when they sum to
	// zero: Normalize then makes the reference uniform over the union,
	// whose size depends on the other histogram.
	p []float64
}

// NewReference prepares h as a reference histogram. It keeps h's
// dictionary and ids, not copies.
func NewReference(h *IDHist) *Reference {
	r := &Reference{dict: h.Dict, ids: h.IDs, pos: make([]int32, len(h.Dict))}
	for i := range r.pos {
		r.pos[i] = -1
	}
	sum := 0.0
	for i, id := range h.IDs {
		r.pos[id] = int32(i)
		if w := h.Weights[i]; w > 0 {
			sum += w
		}
	}
	if sum == 0 {
		return r
	}
	r.p = make([]float64, len(h.IDs))
	for i, w := range h.Weights {
		if w > 0 {
			r.p[i] = w / sum
		}
	}
	return r
}

// KL returns KLDivergence(AlignedDistributions(a, h), eps) for the
// histogram h the reference was prepared from, each histogram read as a
// map from key to weight, equal to the bit: it visits the union in the
// same order and repeats the same float operations. When a is over h's
// dictionary and holds no key h lacks, the union is h's keys, and a's
// weights drop into place through the reference's id table. Otherwise
// the two ascending key lists are merged by string.
func (r *Reference) KL(a *IDHist, eps float64) float64 {
	if !r.covers(a) {
		return r.klMerged(a, eps)
	}
	n := len(r.ids)
	if n == 0 {
		return math.Inf(1)
	}
	pb := r.p
	if pb == nil {
		pb = uniform(n)
	}
	wa := make([]float64, n)
	for i, id := range a.IDs {
		wa[r.pos[id]] = a.Weights[i]
	}
	return klNormalizing(wa, pb, eps)
}

// covers reports whether a is over the reference's dictionary and holds
// no key the reference lacks.
func (r *Reference) covers(a *IDHist) bool {
	if len(a.Dict) != len(r.dict) || (len(r.dict) > 0 && &a.Dict[0] != &r.dict[0]) {
		return false
	}
	for _, id := range a.IDs {
		if r.pos[id] < 0 {
			return false
		}
	}
	return true
}

// klMerged is KL over the union of the reference's keys and a's, merged
// in ascending byte order, each side weighing 0 on the keys it lacks.
func (r *Reference) klMerged(a *IDHist, eps float64) float64 {
	n, k := len(r.ids), a.Len()
	wa := make([]float64, 0, n+k)
	var pb []float64
	if r.p != nil {
		pb = make([]float64, 0, n+k)
	}
	for i, j := 0, 0; i < n || j < k; {
		// c orders the reference's next key against a's: below 0 only
		// the reference holds the key, above 0 only a, at 0 both.
		c := -1
		switch {
		case i == n:
			c = 1
		case j < k:
			c = strings.Compare(r.dict[r.ids[i]], a.Key(j))
		}
		w, q := 0.0, 0.0
		if c >= 0 {
			w = a.Weights[j]
			j++
		}
		if c <= 0 {
			if r.p != nil {
				q = r.p[i]
			}
			i++
		}
		wa = append(wa, w)
		if r.p != nil {
			pb = append(pb, q)
		}
	}
	if len(wa) == 0 {
		return math.Inf(1)
	}
	if pb == nil {
		pb = uniform(len(wa))
	}
	return klNormalizing(wa, pb, eps)
}

// uniform returns the uniform distribution over m cells.
func uniform(m int) []float64 {
	out := make([]float64, m)
	u := 1 / float64(m)
	for i := range out {
		out[i] = u
	}
	return out
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
