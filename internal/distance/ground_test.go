package distance

import (
	"encoding/binary"
	"encoding/json"
	"math"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/netlog"
	"repro/internal/snapshot"
)

// mapTotalVariation is the formula the merge-walk replaced, kept as its
// oracle: half the sum of |a[k] − b[k]| over the sorted union of keys, a
// key missing from one map read as 0.
func mapTotalVariation(a, b map[string]float64) float64 {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	d := 0.0
	for _, k := range keys {
		d += math.Abs(a[k] - b[k])
	}
	return d / 2
}

// mapJaccard is the set-based Jaccard similarity the sorted merge
// replaced.
func mapJaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	set := make(map[string]uint8, len(a)+len(b))
	for _, s := range a {
		set[s] |= 1
	}
	for _, s := range b {
		set[s] |= 2
	}
	inter := 0
	for _, bits := range set {
		if bits == 3 {
			inter++
		}
	}
	return float64(inter) / float64(len(set))
}

// mapDisplayDistance is DisplayDistance computed the way it was before
// profiles were prepared: column names through a map-based Jaccard,
// duplicate names paired through an occurrence map, and histograms as
// string-keyed maps.
func mapDisplayDistance(a, b *engine.Display) float64 {
	switch {
	case a == nil && b == nil:
		return 0
	case a == nil || b == nil:
		return 1
	}
	pa, pb := a.GetProfile(), b.GetProfile()
	names := func(p *engine.Profile) []string {
		out := make([]string, len(p.Columns))
		for i, c := range p.Columns {
			out[i] = c.Name
		}
		return out
	}
	schemaD := 1 - mapJaccard(names(pa), names(pb))
	rowD := 0.0
	ra, rb := float64(a.NumRows()), float64(b.NumRows())
	if ra > 0 && rb > 0 {
		rowD = math.Abs(math.Log(ra)-math.Log(rb)) / math.Log(1e6)
		if rowD > 1 {
			rowD = 1
		}
	} else if ra != rb {
		rowD = 1
	}
	contentD, shared := 0.0, 0
	occ := make(map[string]int)
	for i := range pa.Columns {
		name := pa.Columns[i].Name
		j := nthColumn(pb, name, occ[name])
		occ[name]++
		if j < 0 {
			continue
		}
		shared++
		contentD += mapTotalVariation(histMap(pa.TopFreq(i)), histMap(pb.TopFreq(j)))
	}
	if shared > 0 {
		contentD /= float64(shared)
	} else {
		contentD = 1
	}
	aggD := 0.0
	if a.Aggregated != b.Aggregated {
		aggD = 1
	} else if a.Aggregated && a.GroupColumn != b.GroupColumn {
		aggD = 0.5
	}
	return 0.25*schemaD + 0.15*rowD + 0.4*contentD + 0.2*aggD
}

func histMap(h engine.Hist) map[string]float64 {
	m := make(map[string]float64, len(h.Keys))
	for i, k := range h.Keys {
		m[k] = h.Weights[i]
	}
	return m
}

// pairsOf lists a map's entries as key/weight pairs, in map order.
func pairsOf(m map[string]float64) []engine.KeyWeight {
	var out []engine.KeyWeight
	for k, v := range m {
		out = append(out, engine.KeyWeight{Key: k, Weight: v})
	}
	return out
}

// histOf prepares a map as a one-column summary profile does.
func histOf(m map[string]float64) engine.Hist {
	p := engine.NewProfile(1, []engine.ColumnProfile{{Name: "c"}}, [][]engine.KeyWeight{pairsOf(m)})
	return p.TopFreq(0)
}

// fuzzHists decodes two histograms from fuzz bytes. Each entry is a
// header byte (bit 0: side, bit 1: on both sides, bit 2: the other
// bucket's key, bits 3–4: key length), key bytes over a four-letter
// alphabet that makes shared prefixes likely, and one float64 weight
// (two for an entry on both sides) taken bit for bit, so negative,
// subnormal and non-finite weights all occur. A side without entries is
// nil.
func fuzzHists(data []byte) (a, b map[string]float64) {
	put := func(m *map[string]float64, k string, v float64) {
		if *m == nil {
			*m = make(map[string]float64)
		}
		(*m)[k] = v
	}
	for len(data) > 0 {
		h := data[0]
		data = data[1:]
		klen := int(h>>3) & 3
		if len(data) < klen+8 {
			return a, b
		}
		key := make([]byte, klen)
		for i := range key {
			key[i] = "ab\x00\xff"[data[i]&3]
		}
		k := string(key)
		if h&4 != 0 {
			k = engine.OtherBucket
		}
		data = data[klen:]
		v := math.Float64frombits(binary.LittleEndian.Uint64(data))
		data = data[8:]
		side := [2]*map[string]float64{&a, &b}
		put(side[h&1], k, v)
		if h&2 != 0 && len(data) >= 8 {
			put(side[1-h&1], k, math.Float64frombits(binary.LittleEndian.Uint64(data)))
			data = data[8:]
		}
	}
	return a, b
}

func fuzzEntry(h byte, key []byte, ws ...float64) []byte {
	out := append([]byte{h}, key...)
	for _, w := range ws {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(w))
	}
	return out
}

// FuzzTotalVariation checks the merge-walk total variation against the
// map formula, float bit for float bit (any NaN matching any NaN), on
// histograms with shared key prefixes, the other bucket, empty and nil
// sides, and arbitrary weights.
func FuzzTotalVariation(f *testing.F) {
	join := func(parts ...[]byte) []byte {
		var out []byte
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	f.Add([]byte{})
	f.Add(fuzzEntry(0, nil, 0.5))
	f.Add(join(
		fuzzEntry(1<<3, []byte{0}, 0.25),                           // a: "a"
		fuzzEntry(2<<3|1, []byte{0, 1}, 0.5),                       // b: "ab"
		fuzzEntry(3<<3|2, []byte{0, 1, 1}, 0.125, 0.375),           // both: "abb"
		fuzzEntry(4|2, nil, 0.1, 0.2),                              // both: the other bucket
		fuzzEntry(1<<3|1, []byte{2}, -0.75),                        // b: "\x00", negative
		fuzzEntry(2<<3, []byte{3, 2}, math.SmallestNonzeroFloat64), // a: subnormal
	))
	f.Add(join(
		fuzzEntry(1<<3|2, []byte{0}, 1e-310, -1e-310),
		fuzzEntry(4, nil, math.Inf(1)),
		fuzzEntry(1<<3|1, []byte{3}, math.NaN()),
	))
	f.Fuzz(func(t *testing.T, data []byte) {
		a, b := fuzzHists(data)
		want := mapTotalVariation(a, b)
		got := totalVariationSorted(histOf(a), histOf(b))
		if math.IsNaN(want) && math.IsNaN(got) {
			// Which payload a sum of two NaNs keeps depends on the
			// operand order the compiler picks, not on the summation
			// order; relative frequencies are never NaN.
			return
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("merge-walk %v (%#x), map formula %v (%#x) for a=%v b=%v",
				got, math.Float64bits(got), want, math.Float64bits(want), a, b)
		}
	})
}

// groundDisplays returns displays for the ground-metric tests: netlog
// displays one and two actions deep, raw and aggregated, an aggregated
// display with a duplicate column name, and a column-less summary, each
// table-built display followed by its decoded wire round trip.
func groundDisplays(t *testing.T) []*engine.Display {
	t.Helper()
	root := engine.NewRootDisplay(netlog.Generate(netlog.PortScan, netlog.Config{Rows: 600, Seed: 3}))
	exec := func(d *engine.Display, a *engine.Action) *engine.Display {
		t.Helper()
		out, err := engine.Execute(d, a)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	http := exec(root, engine.NewFilter(engine.Predicate{Column: "protocol", Op: engine.OpEq, Operand: dataset.S("HTTP")}))
	late := exec(http, engine.NewFilter(engine.Predicate{Column: "hour", Op: engine.OpGt, Operand: dataset.I(12)}))
	byDst := exec(http, engine.NewGroupCount("dst_ip"))
	avgLen := exec(late, engine.NewGroupAgg("protocol", engine.AggAvg, "length"))

	b := dataset.NewBuilder("counts", dataset.Schema{
		{Name: "count", Kind: dataset.KindInt},
		{Name: "host", Kind: dataset.KindString},
	})
	for i := 0; i < 40; i++ {
		b.Append(dataset.I(int64(i%6)), dataset.S(string(rune('a'+i%9))))
	}
	dup := exec(engine.NewRootDisplay(b.MustBuild()), engine.NewGroupCount("count"))
	if cols := dup.GetProfile().Columns; len(cols) != 2 || cols[0].Name != cols[1].Name {
		t.Fatalf("grouping count by count: columns %+v, want two named count", cols)
	}

	var out []*engine.Display
	for _, d := range []*engine.Display{root, http, late, byDst, avgLen, dup} {
		out = append(out, d, wireRoundTrip(t, d))
	}
	return append(out, engine.NewSummaryDisplay(5, false, "", "", engine.NewProfile(5, nil, nil)))
}

// wireRoundTrip decodes d from its JSON wire form, as a served request
// does.
func wireRoundTrip(t *testing.T, d *engine.Display) *engine.Display {
	t.Helper()
	raw, err := json.Marshal(snapshot.EncodeDisplay(d))
	if err != nil {
		t.Fatal(err)
	}
	var w snapshot.WireDisplay
	if err := json.Unmarshal(raw, &w); err != nil {
		t.Fatal(err)
	}
	back, err := snapshot.DecodeDisplay(&w)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

// TestDisplayDistanceMatchesMapFormula pins DisplayDistance to the
// map-based computation it replaced, bit for bit, on every ordered pair
// of table-built, decoded, duplicate-named and column-less displays.
func TestDisplayDistanceMatchesMapFormula(t *testing.T) {
	ds := groundDisplays(t)
	for i, a := range ds {
		for j, b := range ds {
			got, want := DisplayDistance(a, b), mapDisplayDistance(a, b)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("pair (%d,%d): DisplayDistance %v, map formula %v", i, j, got, want)
			}
		}
	}
	if d := DisplayDistance(ds[len(ds)-1], ds[len(ds)-1]); d != 0.4 {
		t.Errorf("column-less display against itself = %v, want 0.4", d)
	}
}

// TestDisplayDistanceAllocatesNothing: once both profiles are prepared,
// the ground metric allocates nothing.
func TestDisplayDistanceAllocatesNothing(t *testing.T) {
	ds := groundDisplays(t)
	for _, a := range ds {
		for _, b := range ds {
			DisplayDistance(a, b)
		}
	}
	allocs := testing.AllocsPerRun(20, func() {
		for _, a := range ds {
			for _, b := range ds {
				DisplayDistance(a, b)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("DisplayDistance over %d prepared pairs: %v allocations, want 0", len(ds)*len(ds), allocs)
	}
}

// TestEvaluatorExactStageAllocatesNothing: a warm evaluator's
// DistanceWithin to a prepared context allocates nothing, also when the
// pair reaches the exact stage and computes display distances.
func TestEvaluatorExactStageAllocatesNothing(t *testing.T) {
	root := engine.NewRootDisplay(netlog.Generate(netlog.PortScan, netlog.Config{Rows: 400, Seed: 5}))
	flt := engine.NewFilter(engine.Predicate{Column: "protocol", Op: engine.OpEq, Operand: dataset.S("HTTP")})
	q := ctxAtEnd(t, sessionWith(t, root, flt, engine.NewGroupCount("dst_ip")), 3)
	c := ctxAtEnd(t, sessionWith(t, root, flt, engine.NewGroupCount("src_ip")), 3)
	m := TreeEdit{}
	ev, p := m.NewEvaluator(q), m.Prepare(c)
	if _, ok := ev.DistanceWithin(p, 1); !ok || ev.displays == 0 {
		t.Fatalf("warm-up did not reach the exact stage (within %v, %d display distances)", ok, ev.displays)
	}
	allocs := testing.AllocsPerRun(50, func() { ev.DistanceWithin(p, 1) })
	if allocs != 0 {
		t.Fatalf("warm DistanceWithin: %v allocations, want 0", allocs)
	}
	// The tallies reach the shared counters at Flush only.
	calls := mBoundedCalls.Load()
	ev.Flush()
	if ev.bounded != 0 || ev.displays != 0 {
		t.Fatal("Flush left tallies behind")
	}
	if mBoundedCalls.Load() == calls {
		t.Fatal("Flush added nothing to distance.treeedit.bounded_calls")
	}
}
