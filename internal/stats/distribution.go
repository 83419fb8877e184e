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
		d += klTerm(ps[i], qs[i])
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
// in that order, stored as a table of their distinct values. Reference.KL
// then scores a histogram against it without building the union's map,
// its key slice, its sort or any vector. A Reference is immutable and
// safe for concurrent use.
type Reference struct {
	// dict and ids are the keys of the histogram it was prepared from, in
	// ascending order. pos[id] is the position of dict[id] among them, or
	// ^p when the histogram lacks it and its first key above dict[id] is
	// at position p.
	dict []string
	ids  []uint32
	pos  []int32
	// vals holds the distinct values, by bits, of Normalize of the weights
	// in key order, in order of first appearance, and val[i] indexes the
	// i-th key's value. vals is nil when the weights sum to zero:
	// Normalize then makes the reference uniform over the union, whose
	// size depends on the other histogram, and every val is 0.
	vals []float64
	val  []uint32
}

// NewReference prepares h as a reference histogram. It keeps h's
// dictionary and ids, not copies.
func NewReference(h *IDHist) *Reference {
	r := &Reference{dict: h.Dict, ids: h.IDs, pos: make([]int32, len(h.Dict)), val: make([]uint32, len(h.IDs))}
	next := 0
	for id := range r.pos {
		if next < len(h.IDs) && h.IDs[next] == uint32(id) {
			r.pos[id] = int32(next)
			next++
		} else {
			r.pos[id] = ^int32(next)
		}
	}
	sum := 0.0
	for _, w := range h.Weights {
		if w > 0 {
			sum += w
		}
	}
	if sum == 0 {
		return r
	}
	index := make(map[uint64]uint32)
	for i, w := range h.Weights {
		p := 0.0
		if w > 0 {
			p = w / sum
		}
		bits := math.Float64bits(p)
		v, ok := index[bits]
		if !ok {
			v = uint32(len(r.vals))
			index[bits] = v
			r.vals = append(r.vals, p)
		}
		r.val[i] = v
	}
	return r
}

// klSlots is how many of a reference's distinct values KL keeps the
// term of a missing cell for, on its stack. D distinct positive counts
// sum to at least 1+2+…+D, so a histogram of counts over fewer than
// klSlots·(klSlots+1)/2 = 8,256 rows has fewer than klSlots distinct
// weights.
const klSlots = 128

// KL returns KLDivergence(AlignedDistributions(a, h), eps) for the
// histogram h the reference was prepared from, each histogram read as a
// map from key to weight, equal to the bit: it visits the union in the
// same order and repeats the same float operations, except that a term
// whose operands it has already met is added again, not computed again.
// a's keys find their place among h's through the position table when a
// is over h's dictionary, and by binary search on the key string
// otherwise. KL allocates nothing.
func (r *Reference) KL(a *IDHist, eps float64) float64 {
	if eps <= 0 {
		eps = 1e-9
	}
	byID := len(a.Dict) == len(r.dict) && (len(r.dict) == 0 || &a.Dict[0] == &r.dict[0])
	n, k := len(r.ids), a.Len()
	// The union holds h's n keys and those of a's that h lacks.
	m, sumA := n, 0.0
	for j, at := 0, 0; j < k; j++ {
		if w := a.Weights[j]; w > 0 {
			sumA += w
		}
		p, both := r.seek(a, j, at, byID)
		if !both {
			m++
		}
		at = p
	}
	if m == 0 {
		return math.Inf(1)
	}
	u := 1 / float64(m)
	vals, absent := r.vals, 0.0 // absent is h's normalized weight on a key it lacks
	if vals == nil {
		vals, absent = []float64{u}, u
	}
	// missing is a's smoothed cell on a key it lacks.
	missing := normalizedCell(0, sumA, u) + eps

	// First pass: the two smoothing sums, cell by cell in union order.
	sa, sb := 0.0, 0.0
	i := 0
	for j := 0; j <= k; j++ {
		end, both := n, false
		if j < k {
			end, both = r.seek(a, j, i, byID)
		}
		for ; i < end; i++ {
			sa += missing
			sb += vals[r.val[i]] + eps
		}
		if j == k {
			break
		}
		q := absent
		if both {
			q = vals[r.val[i]]
			i++
		}
		sa += normalizedCell(a.Weights[j], sumA, u) + eps
		sb += q + eps
	}

	// Second pass: the KL sum. A cell a lacks has the same ps in every
	// such cell, so its term depends only on h's value there: it is
	// computed once per value and slot, where a zero slot is one not yet
	// computed (or a zero term, which computing again reproduces).
	var terms [klSlots]float64
	ps := missing / sa
	d := 0.0
	i = 0
	for j := 0; j <= k; j++ {
		end, both := n, false
		if j < k {
			end, both = r.seek(a, j, i, byID)
		}
		for ; i < end; i++ {
			v := r.val[i]
			if v >= klSlots {
				d += klTerm(ps, (vals[v]+eps)/sb)
				continue
			}
			if terms[v] == 0 {
				terms[v] = klTerm(ps, (vals[v]+eps)/sb)
			}
			d += terms[v]
		}
		if j == k {
			break
		}
		q := absent
		if both {
			q = vals[r.val[i]]
			i++
		}
		d += klTerm((normalizedCell(a.Weights[j], sumA, u)+eps)/sa, (q+eps)/sb)
	}
	if d < 0 {
		d = 0
	}
	return d
}

// seek places a's j-th key among the reference's keys: it returns the
// position of the reference's first key not below it, searching from
// position from on, and whether that key is a's.
func (r *Reference) seek(a *IDHist, j, from int, byID bool) (int, bool) {
	if byID {
		p := r.pos[a.IDs[j]]
		if p < 0 {
			return int(^p), false
		}
		return int(p), true
	}
	key := a.Key(j)
	p := from + sort.Search(len(r.ids)-from, func(x int) bool { return r.dict[r.ids[from+x]] >= key })
	return p, p < len(r.ids) && r.dict[r.ids[p]] == key
}

// klTerm is one cell's term of the KL sum. The conversion rounds the
// product before the caller adds it, so that a term computed once and
// added at several cells adds the bits a term computed in place does,
// also where the compiler would fuse a multiply into an add.
func klTerm(ps, qs float64) float64 {
	return float64(ps * math.Log(ps/qs))
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
