package knn

// less orders candidates lexicographically by (dist, index), which
// reproduces exactly what a stable sort of the scan order would yield —
// the tie-break the paper-default configuration relies on for
// deterministic neighbor lists.
func (c Candidate) less(o Candidate) bool {
	return c.Dist < o.Dist || (c.Dist == o.Dist && c.Index < o.Index)
}

// topK is a bounded accumulator of the k smallest candidates under
// (dist, index) order: a hand-rolled max-heap so one scan costs
// O(n log k) and allocates O(min(k, n)) — replacing the full
// sort.SliceStable over every eligible neighbor (O(n log n) time, O(n)
// space) the scan used before.
type topK struct {
	k int
	h []Candidate // max-heap: h[0] is the worst kept candidate
}

// newTopK returns an accumulator for the k smallest of at most n offered
// candidates. It preallocates min(k, n) slots, so a model's k never
// sizes an allocation beyond what its samples can fill.
func newTopK(k, n int) *topK {
	if k < 1 {
		k = 1
	}
	return &topK{k: k, h: make([]Candidate, 0, min(k, n))}
}

// full reports whether k candidates are held.
func (t *topK) full() bool { return len(t.h) == t.k }

// bound returns the current k-th-best distance, valid only when full; a
// scan may prune any candidate strictly farther than this.
func (t *topK) bound() float64 { return t.h[0].Dist }

// add offers a candidate; it is kept iff fewer than k are held or it beats
// the current worst under (dist, index) order.
func (t *topK) add(c Candidate) {
	if len(t.h) < t.k {
		t.h = append(t.h, c)
		t.siftUp(len(t.h) - 1)
		return
	}
	if !c.less(t.h[0]) {
		return
	}
	t.h[0] = c
	t.siftDown(0)
}

func (t *topK) siftUp(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !t.h[p].less(t.h[i]) {
			return
		}
		t.h[p], t.h[i] = t.h[i], t.h[p]
		i = p
	}
}

func (t *topK) siftDown(i int) {
	n := len(t.h)
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < n && t.h[big].less(t.h[l]) {
			big = l
		}
		if r < n && t.h[big].less(t.h[r]) {
			big = r
		}
		if big == i {
			return
		}
		t.h[i], t.h[big] = t.h[big], t.h[i]
		i = big
	}
}

// drain empties the heap into ascending (dist, index) order — the
// nearest-first neighbor order Vote expects. The accumulator is consumed.
func (t *topK) drain() []Candidate {
	out := t.h
	for n := len(out) - 1; n > 0; n-- {
		out[0], out[n] = out[n], out[0]
		t.h = out[:n]
		t.siftDown(0)
	}
	t.h = nil
	return out
}
