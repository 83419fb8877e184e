package stats

import (
	"fmt"
	"math"
	"sort"
	"sync"
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
	// References whose weights tie, as counts over n do: many keys
	// sharing few weights, with displays at either end and outside.
	var tied, mixed []byte
	for i := 0; i < 60; i++ {
		tied = append(tied, 2, byte('a'+i/26), byte('a'+i%26), 20)
		mixed = append(mixed, 2, byte('a'+i/26), byte('a'+i%26), byte(2+i%3))
	}
	f.Add([]byte{2, 'a', 'a', 5, 2, 'c', 'h', 9}, tied, 1e-6)
	f.Add([]byte{0, 3, 2, 'z', 'z', 1}, mixed, 1e-6)
	f.Add([]byte{2, 'b', 'a', 0, 2, 'b', 'b', 0}, mixed, 0.0)
	f.Fuzz(func(t *testing.T, a, b []byte, eps float64) {
		checkReferenceKL(t, decodeHist(a), decodeHist(b), eps)
	})
}

// tiedHist returns n keys "k0000".."k<n-1>" weighing weight(i).
func tiedHist(n int, weight func(i int) float64) map[string]float64 {
	h := make(map[string]float64, n)
	for i := 0; i < n; i++ {
		h[fmt.Sprintf("k%04d", i)] = weight(i)
	}
	return h
}

// TestReferenceKLTiedWeights scores displays against references whose
// weights repeat, as counts over n do, and against references with more
// distinct weights than KL keeps terms for, so that cells past its slots
// compute their term in place between cells that reuse one.
func TestReferenceKLTiedWeights(t *testing.T) {
	refs := map[string]map[string]float64{
		"three counts":   tiedHist(600, func(i int) float64 { return float64(1 + i%3) }),
		"one count":      tiedHist(300, func(int) float64 { return 7 }),
		"past the slots": tiedHist(3*klSlots, func(i int) float64 { return float64(1 + i%(2*klSlots+5)) }),
		"all distinct":   tiedHist(2*klSlots+1, func(i int) float64 { return 1 + float64(i)/7 }),
		"ties and zeros": tiedHist(400, func(i int) float64 { return float64(i % 4) }),
		// Weights one ulp apart stay distinct values: a table keyed by
		// anything coarser than the bits would merge them.
		"ulp neighbours": tiedHist(300, func(i int) float64 { return math.Nextafter(1, 2) + float64(i%3)*0x1p-52 }),
	}
	for name, b := range refs {
		t.Run(name, func(t *testing.T) {
			keys := dictOf(nil, b)
			first, last := keys[0], keys[len(keys)-1]
			displays := []map[string]float64{
				{},
				{keys[len(keys)/2]: 3},
				{first: 1}, // the first union position
				{last: 2},  // the last union position
				{first: 1, last: 1, keys[len(keys)/3]: 5}, // both ends and a middle cell
				{first: 0, last: 0},                       // an all-zero display
				{first: 0, keys[len(keys)/2]: -1},         // all-zero with a negative weight
				{keys[7]: 0, "outside": 0},                // all-zero with an outside key
				{"": 2, last: 1},                          // an outside key before every key
				{first: 4, "zzz": 1},                      // an outside key after every key
				{first: 1, "k0000x": 0, "zzz": 0},         // zero-weight outside keys
				{keys[3] + "a": 0},                        // a lone zero-weight outside key
			}
			for _, a := range displays {
				for _, eps := range []float64{1e-6, 0, 0.5} {
					checkReferenceKL(t, a, b, eps)
				}
			}
		})
	}
}

// TestReferenceKLAllocatesNothing checks that scoring allocates nothing
// in any layout: by id, with a key outside the reference, and by string,
// against a weighted and a uniform reference.
func TestReferenceKLAllocatesNothing(t *testing.T) {
	for _, b := range []map[string]float64{
		tiedHist(400, func(i int) float64 { return float64(1 + i%(klSlots+40)) }),
		tiedHist(400, func(int) float64 { return 0 }),
	} {
		dict := dictOf([]string{"outside"}, b)
		r := NewReference(histOver(dict, b))
		for name, a := range map[string]*IDHist{
			"by id":       histOver(dict, map[string]float64{"k0001": 2, "k0300": 1}),
			"outside key": histOver(dict, map[string]float64{"k0001": 2, "outside": 1}),
			"by string":   histOver(dictOf(nil, map[string]float64{"k0002": 1, "z": 3}), map[string]float64{"k0002": 1, "z": 3}),
		} {
			if allocs := testing.AllocsPerRun(20, func() { r.KL(a, 1e-6) }); allocs != 0 {
				t.Errorf("%s: KL allocates %v times per call", name, allocs)
			}
		}
	}
}

// TestReferenceKLRace scores many displays concurrently against one
// shared reference, in every layout, and checks each against the bits
// a lone call gave.
func TestReferenceKLRace(t *testing.T) {
	b := tiedHist(300, func(i int) float64 { return float64(1 + i%9) })
	dict := dictOf([]string{"a", "zz"}, b)
	r := NewReference(histOver(dict, b))
	rng := NewRNG(28)
	var displays []*IDHist
	var want []float64
	for i := 0; i < 40; i++ {
		a := map[string]float64{}
		for _, k := range dict {
			if rng.Float64() < 0.05 {
				a[k] = float64(rng.Intn(4))
			}
		}
		h := histOver(dict, a)
		if i%2 == 1 {
			h = histOver(dictOf(nil, a), a)
		}
		displays = append(displays, h)
		want = append(want, klOracle(a, b, 1e-6))
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i := range displays {
					j := (i + g) % len(displays)
					if got := r.KL(displays[j], 1e-6); !sameBits(got, want[j]) {
						t.Errorf("goroutine %d: display %d: KL = %v, want %v", g, j, got, want[j])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
