package stats

import (
	"fmt"
	"math"
	"sort"
	"testing"
)

// klOracle is the two-call formula Reference.KL must equal to the bit.
func klOracle(a, b map[string]float64, eps float64) float64 {
	pa, pb := AlignedDistributions(a, b)
	return KLDivergence(pa, pb, eps)
}

func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

// histOver returns m as a histogram over dict, which must hold every key
// of m.
func histOver(dict []string, m map[string]float64) *IDHist {
	h := &IDHist{Dict: dict}
	for id, k := range dict {
		if w, ok := m[k]; ok {
			h.IDs = append(h.IDs, uint32(id))
			h.Weights = append(h.Weights, w)
		}
	}
	return h
}

// dictOf returns the keys of the maps, and extra, as a dictionary.
func dictOf(extra []string, ms ...map[string]float64) []string {
	seen := map[string]bool{}
	var dict []string
	add := func(k string) {
		if !seen[k] {
			seen[k] = true
			dict = append(dict, k)
		}
	}
	for _, m := range ms {
		for k := range m {
			add(k)
		}
	}
	for _, k := range extra {
		add(k)
	}
	sort.Strings(dict)
	return dict
}

// checkReferenceKL scores a against the reference prepared from b, both
// read as histograms, against the two-call formula, to the bit, with the
// histograms laid out four ways: each over a dictionary of its own keys
// (merged by key string); both over one dictionary of their union plus
// keys neither holds (a's keys outside b take the merge); both over b's
// own dictionary when a's keys are b's (placed by id); and a over an
// equal copy of that dictionary (merged, with no key outside b).
func checkReferenceKL(t *testing.T, a, b map[string]float64, eps float64) {
	t.Helper()
	want := klOracle(a, b, eps)
	check := func(layout string, ha, hb *IDHist) {
		t.Helper()
		got := NewReference(hb).KL(ha, eps)
		if !sameBits(got, want) {
			t.Fatalf("%s: Reference(%v).KL(%v, %g) = %v (%#x), want %v (%#x)",
				layout, b, a, eps, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	check("own dictionaries", histOver(dictOf(nil, a), a), histOver(dictOf(nil, b), b))
	shared := dictOf([]string{"", "m", "\xff"}, a, b)
	check("shared dictionary", histOver(shared, a), histOver(shared, b))
	for k := range a {
		if _, ok := b[k]; !ok {
			return
		}
	}
	own := dictOf(nil, b)
	check("reference's dictionary", histOver(own, a), histOver(own, b))
	check("equal dictionary", histOver(append([]string(nil), own...), a), histOver(own, b))
}

func TestReferenceKLEdgeCases(t *testing.T) {
	one := map[string]float64{"x": 1}
	cases := []struct {
		name string
		a, b map[string]float64
	}{
		{"both empty", map[string]float64{}, map[string]float64{}},
		{"nil maps", nil, nil},
		{"empty display", map[string]float64{}, map[string]float64{"a": 1, "b": 2}},
		{"empty reference", map[string]float64{"a": 1, "b": 2}, map[string]float64{}},
		{"single key, same", one, one},
		{"single key, disjoint", map[string]float64{"y": 3}, one},
		{"all-zero display", map[string]float64{"a": 0, "b": 0}, map[string]float64{"a": 1, "c": 2}},
		{"all-zero reference", map[string]float64{"a": 1, "c": 2}, map[string]float64{"a": 0, "b": 0}},
		{"all-zero both", map[string]float64{"a": 0}, map[string]float64{"b": 0}},
		{"zero-weight outside key", map[string]float64{"a": 1, "zz": 0}, map[string]float64{"a": 1, "b": 1}},
		{"negative weights", map[string]float64{"a": -1, "b": 2}, map[string]float64{"a": 3, "b": -4, "c": 1}},
		{"outside keys at every insertion point", map[string]float64{"": 1, "a": 2, "b0": 3, "b1": 1, "d": 4, "zz": 5},
			map[string]float64{"a": 1, "c": 2, "e": 3}},
		{"empty-string key", map[string]float64{"": 2}, map[string]float64{"": 1, "a": 1}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, eps := range []float64{1e-6, 0, -1, 0.5} {
				checkReferenceKL(t, c.a, c.b, eps)
			}
		})
	}
}

// TestReferenceKLSumOrder pins the summation order: the weights below sum
// to different floats in sorted and in insertion order, so a routine that
// summed in any order but the union's sorted one would differ in the bits.
func TestReferenceKLSumOrder(t *testing.T) {
	a := map[string]float64{"a": 1, "b": 1e16, "c": 1}
	b := map[string]float64{"a": 0.1, "b": 0.2, "c": 0.3, "e": 1e16, "f": 1}
	one, big := 1.0, 1e16
	sorted := (one + big) + one
	other := (one + one) + big
	if sorted == other {
		t.Fatal("the weights no longer round differently by order")
	}
	for _, eps := range []float64{1e-6, 1e-9, 0.25} {
		checkReferenceKL(t, a, b, eps)
		checkReferenceKL(t, b, a, eps)
	}
}

func TestReferenceKLRandom(t *testing.T) {
	rng := NewRNG(14)
	keys := make([]string, 60)
	for i := range keys {
		keys[i] = fmt.Sprintf("%c%d", 'a'+rune(rng.Intn(26)), rng.Intn(1000))
	}
	weight := func() float64 {
		switch rng.Intn(8) {
		case 0:
			return 0
		case 1:
			return float64(rng.Intn(5)) // small counts, many ties
		case 2:
			return rng.Float64() * 1e16 // sums that round by order
		case 3:
			return rng.Float64() * 1e-12
		default:
			return rng.Float64()
		}
	}
	hist := func(from []string, p float64) map[string]float64 {
		h := make(map[string]float64)
		for _, k := range from {
			if rng.Float64() < p {
				h[k] = weight()
			}
		}
		return h
	}
	for trial := 0; trial < 2000; trial++ {
		b := hist(keys, rng.Float64())
		var a map[string]float64
		switch trial % 3 {
		case 0: // a display of the reference: keys drawn from b's
			from := make([]string, 0, len(b))
			for k := range b {
				from = append(from, k)
			}
			a = hist(from, rng.Float64())
		default: // keys on either side only
			a = hist(keys, rng.Float64())
		}
		if trial%5 == 0 {
			for k := range a {
				a[k] = 1 // identical weights: only the order of the union matters
			}
		}
		checkReferenceKL(t, a, b, []float64{1e-6, 0, 1e-3}[trial%3])
	}
}

func TestReferenceKLReusable(t *testing.T) {
	b := map[string]float64{"a": 0.25, "b": 0.5, "c": 0.25}
	dict := dictOf([]string{"z"}, b)
	r := NewReference(histOver(dict, b))
	for _, a := range []map[string]float64{{"a": 1}, {"z": 1}, {"b": 2, "c": 1}, {}} {
		if got, want := r.KL(histOver(dict, a), 1e-6), klOracle(a, b, 1e-6); !sameBits(got, want) {
			t.Fatalf("KL(%v) = %v, want %v", a, got, want)
		}
	}
}

// decodeHist reads a histogram from fuzz bytes: repeated records of a
// key length (0-3), the key bytes and one weight byte.
func decodeHist(data []byte) map[string]float64 {
	h := make(map[string]float64)
	for len(data) > 0 {
		n := int(data[0] % 4)
		data = data[1:]
		if len(data) < n+1 {
			break
		}
		key := string(data[:n])
		wb := data[n]
		data = data[n+1:]
		switch {
		case wb == 0:
			h[key] = 0
		case wb == 1:
			h[key] = -1
		default:
			h[key] = float64(wb) * math.Pow(10, float64(int(wb%17)-8))
		}
	}
	return h
}

// FuzzReferenceKL builds dictionaries from the fuzzed keys and scores
// each layout checkReferenceKL makes against the two-call formula.
func FuzzReferenceKL(f *testing.F) {
	f.Add([]byte{1, 'a', 3, 1, 'b', 9}, []byte{1, 'a', 5, 1, 'c', 2}, 1e-6)
	f.Add([]byte{}, []byte{1, 'a', 5}, 1e-6)
	f.Add([]byte{0, 7}, []byte{}, 0.0)
	f.Add([]byte{2, 'a', 'b', 0, 1, 'a', 0}, []byte{1, 'b', 0}, -1.0)
	f.Fuzz(func(t *testing.T, a, b []byte, eps float64) {
		checkReferenceKL(t, decodeHist(a), decodeHist(b), eps)
	})
}
