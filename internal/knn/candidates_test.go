package knn

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"repro/internal/offline"
	"repro/internal/session"
	"repro/internal/stats"
)

// candTrainingSet builds a deterministic labeled set with repeated
// distances (so (dist, index) tie-breaking matters), some multi-label
// samples (so tie-weighting matters) and some unlabeled ones (so top-k
// slot occupancy matters).
func candTrainingSet(n int) []*offline.Sample {
	labels := [][]string{
		{"variance"}, {"osf"}, {"schutz"}, {"variance", "osf"}, nil, {"osf"},
	}
	out := make([]*offline.Sample, n)
	for i := 0; i < n; i++ {
		out[i] = &offline.Sample{
			// T mod 7 creates distance ties across many indexes under
			// stubMetric's |ΔT|/10.
			Context: &session.Context{SessionID: fmt.Sprintf("s%d", i), T: i % 7, N: 3},
			Labels:  labels[i%len(labels)],
		}
	}
	return out
}

// shardSamples partitions the set by index hash, preserving training
// order within each shard and recording the local→global index map —
// the same shape the serving layer uses.
func shardSamples(samples []*offline.Sample, shards int) ([][]*offline.Sample, [][]int) {
	parts := make([][]*offline.Sample, shards)
	globals := make([][]int, shards)
	for i, s := range samples {
		sh := (i * 2654435761) % shards // arbitrary but deterministic spread
		if sh < 0 {
			sh += shards
		}
		parts[sh] = append(parts[sh], s)
		globals[sh] = append(globals[sh], i)
	}
	return parts, globals
}

// remapGlobal rewrites shard-local candidate indexes to global training
// order, as the serving layer does before merging.
func remapGlobal(cds []Candidate, globals []int) []Candidate {
	out := append([]Candidate(nil), cds...)
	for i := range out {
		out[i].Index = globals[out[i].Index]
	}
	return out
}

// The distributed path — per-shard Candidates, global merge, gate, vote,
// fallback — must be bit-identical to the single-process Predict across
// fallback policies and gate widths.
func TestPredictFromCandidatesMatchesPredict(t *testing.T) {
	samples := candTrainingSet(97)
	queries := make([]*session.Context, 0, 10)
	for q := 0; q < 10; q++ {
		queries = append(queries, &session.Context{SessionID: fmt.Sprintf("q%d", q), T: q, N: 3})
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"gated abstain", Config{K: 5, ThetaDelta: 0.2}},
		{"tight gate", Config{K: 3, ThetaDelta: 0.05}},
		{"zero gate nearest", Config{K: 5, ThetaDelta: 0, Fallback: FallbackNearest}},
		{"zero gate prior", Config{K: 5, ThetaDelta: 0, Fallback: FallbackPrior}},
		{"unbounded", Config{K: 4, ThetaDelta: math.Inf(1)}},
		{"k exceeds set", Config{K: 200, ThetaDelta: 0.5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			whole := New(samples, stubMetric{}, tc.cfg)
			parts, globals := shardSamples(samples, 3)
			shardClfs := make([]*Classifier, len(parts))
			for i, part := range parts {
				shardClfs[i] = New(part, stubMetric{}, tc.cfg)
			}
			for _, q := range queries {
				want := whole.Predict(q)
				lists := make([][]Candidate, len(shardClfs))
				for i, sc := range shardClfs {
					lists[i] = remapGlobal(sc.Candidates(q, tc.cfg.ScanLimit()), globals[i])
				}
				merged := MergeCandidates(tc.cfg.K, lists...)
				got := PredictFromCandidates(merged, tc.cfg, whole.Prior())
				if got.Label != want.Label || got.Covered != want.Covered || got.Fallback != want.Fallback {
					t.Fatalf("query %s: distributed (label=%q covered=%v fallback=%v) != single (label=%q covered=%v fallback=%v)",
						q.SessionID, got.Label, got.Covered, got.Fallback, want.Label, want.Covered, want.Fallback)
				}
				if want.Covered && !reflect.DeepEqual(got.Votes, want.Votes) {
					t.Fatalf("query %s: votes %v != %v", q.SessionID, got.Votes, want.Votes)
				}
			}
		})
	}
}

// Candidates must return the top-k within the limit it is given, in
// ascending (dist, index) order with global slot occupancy intact
// (unlabeled samples included): the brute-force reference's top-k under
// the same limit, for θ_δ and for +∞. Under |ΔT|/10 only the six samples
// at distance 0 pass θ_δ = 0.05, fewer than k, so the two limits give
// different lists.
func TestCandidatesOrderAndContent(t *testing.T) {
	samples := candTrainingSet(40)
	q := &session.Context{SessionID: "q", T: 2, N: 3}
	for _, workers := range []int{1, 3} {
		cfg := Config{K: 8, ThetaDelta: 0.05, Workers: workers}
		clf := New(samples, stubMetric{}, cfg)
		for _, limit := range []float64{cfg.ThetaDelta, math.Inf(1)} {
			cds := clf.Candidates(q, limit)
			want := referencePredict(samples, stubMetric{}, Config{K: cfg.K, ThetaDelta: limit}, q).Neighbors
			if len(cds) != len(want) {
				t.Fatalf("workers=%d limit=%v: %d candidates, want %d", workers, limit, len(cds), len(want))
			}
			for i, cd := range cds {
				if samples[cd.Index] != want[i].Sample || cd.Dist != want[i].Dist || !reflect.DeepEqual(cd.Labels, want[i].Sample.Labels) {
					t.Fatalf("workers=%d limit=%v: candidate %d is %+v, want sample %+v at %v", workers, limit, i, cd, want[i].Sample, want[i].Dist)
				}
				if i > 0 {
					if a := cds[i-1]; a.Dist > cd.Dist || (a.Dist == cd.Dist && a.Index >= cd.Index) {
						t.Fatalf("workers=%d limit=%v: candidates not ascending (dist, index): %+v before %+v", workers, limit, a, cd)
					}
				}
			}
		}
		if gated, all := clf.Candidates(q, cfg.ThetaDelta), clf.Candidates(q, math.Inf(1)); len(gated) >= len(all) {
			t.Fatalf("workers=%d: θ_δ list has %d candidates and the +∞ list %d; the fixture must tell them apart", workers, len(gated), len(all))
		}
	}
}

func TestPredictFromCandidatesGateIsPrefix(t *testing.T) {
	sorted := []Candidate{
		{Index: 0, Dist: 0.1, Labels: []string{"near"}},
		{Index: 1, Dist: 0.5, Labels: []string{"far"}},
		{Index: 2, Dist: 0.9, Labels: []string{"far"}},
	}
	// Gate at 0.2: only the near candidate votes.
	p := PredictFromCandidates(sorted, Config{K: 3, ThetaDelta: 0.2}, "")
	if !p.Covered || p.Label != "near" {
		t.Fatalf("gated vote = %+v, want near", p)
	}
	// Gate excludes everything → abstain under the default policy.
	p = PredictFromCandidates(sorted, Config{K: 3, ThetaDelta: 0.01}, "")
	if p.Covered {
		t.Fatalf("all-gated-out must abstain: %+v", p)
	}
	// FallbackNearest re-votes the full list (far wins 2:1).
	p = PredictFromCandidates(sorted, Config{K: 3, ThetaDelta: 0.01, Fallback: FallbackNearest}, "")
	if !p.Covered || !p.Fallback || p.Label != "far" {
		t.Fatalf("nearest fallback = %+v, want far via fallback", p)
	}
	// FallbackPrior answers with the supplied prior.
	p = PredictFromCandidates(nil, Config{K: 3, ThetaDelta: 0.01, Fallback: FallbackPrior}, "variance")
	if !p.Covered || !p.Fallback || p.Label != "variance" {
		t.Fatalf("prior fallback = %+v, want variance via fallback", p)
	}
	// No prior available → the abstention stands.
	p = PredictFromCandidates(nil, Config{K: 3, ThetaDelta: 0.01, Fallback: FallbackPrior}, "")
	if p.Covered {
		t.Fatalf("prior fallback without a prior must abstain: %+v", p)
	}
	// An infinite θ_δ ignores the gate entirely.
	p = PredictFromCandidates(sorted, Config{K: 3, ThetaDelta: math.Inf(1)}, "")
	if !p.Covered || p.Fallback || p.Label != "far" {
		t.Fatalf("unbounded vote = %+v, want far without fallback", p)
	}
}

// TestMergeCandidatesSplitWidthsByteIdentical is the regression test for
// the tie-merge nondeterminism bug: merging per-shard lists from 1-, 2-
// and 3-way splits of the same training set must produce byte-identical
// merged lists and predictions, at queries chosen to manufacture dense
// exact-distance ties (stubMetric over T mod 7 puts ~1/7 of the set at
// each distance level). Before the fix, the merge rebuilt its heap from a
// map keyed by training index, so equal-distance entries entered in map
// iteration order and the kept set could differ run to run and split to
// split.
func TestMergeCandidatesSplitWidthsByteIdentical(t *testing.T) {
	samples := candTrainingSet(91) // 13 full tie groups of 7
	cfg := Config{K: 6, ThetaDelta: 0.25}
	whole := New(samples, stubMetric{}, cfg)
	for _, q := range []*session.Context{
		{SessionID: "q0", T: 0, N: 3}, // distance 0 ties: 13 samples
		{SessionID: "q3", T: 3, N: 3},
		{SessionID: "q6", T: 6, N: 3},
	} {
		want := whole.Predict(q)
		wantList := MergeCandidates(cfg.K, whole.Candidates(q, cfg.ScanLimit()))
		for shards := 1; shards <= 3; shards++ {
			parts, globals := shardSamples(samples, shards)
			lists := make([][]Candidate, len(parts))
			for i, part := range parts {
				lists[i] = remapGlobal(New(part, stubMetric{}, cfg).Candidates(q, cfg.ScanLimit()), globals[i])
			}
			// Merge repeatedly and under every rotation of list order: the
			// result must never move.
			for rot := 0; rot < len(lists); rot++ {
				rotated := append(append([][]Candidate(nil), lists[rot:]...), lists[:rot]...)
				merged := MergeCandidates(cfg.K, rotated...)
				if !reflect.DeepEqual(merged, wantList) {
					t.Fatalf("query %s shards=%d rotation %d: merged list %v != single-process %v",
						q.SessionID, shards, rot, merged, wantList)
				}
				got := PredictFromCandidates(merged, cfg, whole.Prior())
				if got.Label != want.Label || got.Covered != want.Covered || !reflect.DeepEqual(got.Votes, want.Votes) {
					t.Fatalf("query %s shards=%d rotation %d: prediction %+v != %+v",
						q.SessionID, shards, rot, got, want)
				}
			}
		}
	}
}

// TestMergeCandidatesDuplicateIndexDeterministic pins the failover case
// the dedup exists for: the same training index appearing in several
// lists (a stale replica still answering for a reassigned shard), with
// equal and with disagreeing distances. The kept payload must be the
// minimum-distance copy and the merged list must not depend on which list
// arrived first.
func TestMergeCandidatesDuplicateIndexDeterministic(t *testing.T) {
	fresh := []Candidate{
		{Index: 5, Dist: 0.10, Labels: []string{"fresh"}},
		{Index: 7, Dist: 0.10, Labels: []string{"seven"}},
	}
	stale := []Candidate{
		{Index: 5, Dist: 0.30, Labels: []string{"stale"}}, // same index, farther copy
		{Index: 9, Dist: 0.10, Labels: []string{"nine"}},
	}
	twin := []Candidate{
		{Index: 7, Dist: 0.10, Labels: []string{"seven"}}, // exact duplicate
	}
	want := MergeCandidates(3, fresh, stale, twin)
	for _, order := range [][][]Candidate{
		{stale, twin, fresh},
		{twin, fresh, stale},
		{stale, fresh, twin},
	} {
		if got := MergeCandidates(3, order...); !reflect.DeepEqual(got, want) {
			t.Fatalf("merge depends on arrival order: %v vs %v", got, want)
		}
	}
	// Index 5 must keep the fresh (closer) copy, and equal-distance ties
	// must resolve by index: 5 (0.10), 7 (0.10), 9 (0.10).
	if len(want) != 3 || want[0].Index != 5 || want[0].Labels[0] != "fresh" ||
		want[1].Index != 7 || want[2].Index != 9 {
		t.Fatalf("merged = %v, want fresh#5, seven#7, nine#9", want)
	}
}

// FuzzMergeCandidates is the partition property behind every merge — ring
// shards at the router and chunks of a parallel scan: split a training set
// into 1–8 parts, take each part's top-k, merge the lists in any order,
// and the result is the whole set's top-k in (dist, index) order, labels
// included. Coarse distances (b%16 / 16) make ties common.
func FuzzMergeCandidates(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 0, 5}, uint8(3), uint8(2), uint64(1))
	f.Add([]byte{2, 3, 2, 1, 5}, uint8(2), uint8(2), uint64(7))
	f.Add([]byte{7, 7, 7, 7, 7, 7, 7, 7}, uint8(4), uint8(7), uint64(2))
	f.Add([]byte{}, uint8(0), uint8(2), uint64(3))
	f.Fuzz(func(t *testing.T, dists []byte, k, parts uint8, seed uint64) {
		kk, rng := 1+int(k%16), stats.NewRNG(seed)
		topK := func(cds []Candidate) []Candidate {
			out := append([]Candidate(nil), cds...)
			sort.SliceStable(out, func(a, b int) bool { return out[a].Dist < out[b].Dist })
			return out[:min(kk, len(out))]
		}
		all := make([]Candidate, len(dists))
		split := make([][]Candidate, 1+int(parts%8))
		for i, b := range dists {
			all[i] = Candidate{Index: i, Dist: float64(b%16) / 16, Labels: []string{fmt.Sprint(i)}}
			p := rng.Intn(len(split))
			split[p] = append(split[p], all[i])
		}
		lists := make([][]Candidate, len(split))
		for i, p := range rng.Perm(len(split)) {
			lists[i] = topK(split[p])
		}
		if got, want := MergeCandidates(kk, lists...), topK(all); len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			t.Fatalf("merged %+v, want %+v", got, want)
		}
	})
}
