package serve

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/distance"
	"repro/internal/knn"
	"repro/internal/ring"
	"repro/internal/snapshot"
)

// FuzzCandidates drives a ring replica's POST /v1/knn/candidates with
// hostile bodies. The replica never panics and never answers 5xx: a body
// it cannot serve is the caller's fault. A 200 answers every context of a
// body that decodes as a candidatesRequest, with at most K candidates per
// context, ascending by (dist, index), numbered in the shard's global
// positions, and each within max_dist when the body gives one.
func FuzzCandidates(f *testing.F) {
	samples := ringTrainingSet(30)
	const k = 3
	clf := knn.New(samples, distance.NewMemoizedTreeEdit(nil), knn.Config{K: k, ThetaDelta: 0.3, Workers: 1})
	r, err := ring.New(&ring.Spec{Shards: 2, Replicas: 1, Nodes: []ring.Node{{Name: "n0", Addr: "http://127.0.0.1:1"}}})
	if err != nil {
		f.Fatal(err)
	}
	replica := New(clf, ModelInfo{N: 6, Checksum: "cafe"}, Options{Ring: r, NodeName: "n0"})
	h := replica.Handler()
	shards := replica.cur.Load().shards

	q, err := json.Marshal(snapshot.EncodeContext(chainCtx("q", 1, 3), nil))
	if err != nil {
		f.Fatal(err)
	}
	ctx := string(q)
	for _, seed := range []string{
		`{"shard":0,"max_dist":0.3,"contexts":[` + ctx + `]}`,
		`{"shard":1,"contexts":[` + ctx + `,` + ctx + `]}`,
		`{"shard":0,"max_dist":0,"contexts":[` + ctx + `]}`,
		`{"shard":1,"max_dist":1e308,"contexts":[` + ctx + `]}`,
		`{"shard":0,"max_dist":-1,"contexts":[` + ctx + `]}`,
		`{"shard":0,"max_dist":"0.3","contexts":[` + ctx + `]}`,
		`{"shard":2,"contexts":[` + ctx + `]}`,
		`{"shard":-1,"contexts":[` + ctx + `]}`,
		`{"shard":0,"contexts":[]}`,
		`{"shard":0,"contexts":[null]}`,
		`{"shard":0,"contexts":null}`,
		`{"shard":0,"contexts":[{"root":{"step":0,"children":[{"step":1,"children":[{"step":2}]},{"step":3},{"step":4},{"step":5},{"step":6}]}}]}`,
		`{"shard":0,"contexts":[{"root":{"step":0,"action":{"type":"nope"}}}]}`,
		`{"shard":0,"contexts":[{"root":{"step":0,"display":{"rows":3,"columns":[{"name":"c","top_freq":{"a":1e308,"b":-1e308}}]}}}]}`,
		`{}`,
		`[]`,
		`null`,
		``,
	} {
		f.Add([]byte(seed))
	}
	// The one-pass reader's ground: canonical contexts written indented,
	// without HTML escapes and with keys reordered, which it reads, and
	// one body per class it leaves to encoding/json.
	for _, c := range canonicalContextForms(f) {
		f.Add([]byte(`{"shard":0,"max_dist":0.3,"contexts":[` + c + `]}`))
	}
	for _, c := range []string{
		`{"Session_id":"q","root":{"step":1}}`,
		`{"session_id":"q","extra":1,"root":{"step":1}}`,
		`{"t":-1,"t":1,"root":{"step":1}}`,
		`{"root":{"step":1,"action":null}}`,
		`{"t":1.5,"root":{"step":1}}`,
		`{"session_id":"\ud800","root":{"step":1}}`,
		"{\"session_id\":\"q\xff\",\"root\":{\"step\":1}}",
		`{"root":{"step":1,"ref":1}}`,
		`{"root":{"step":0,"display":{"rows":3,"columns":[{"name":"c","top_freq":{"a":0.5,"b":0.25,"a":0.25}}]}}}`,
	} {
		f.Add([]byte(`{"shard":0,"contexts":[` + c + `]}`))
	}
	f.Add([]byte(`{"shard":0,"contexts":[` + ctx + `]}x`))
	f.Add([]byte(`{"shard":1,"shard":0,"contexts":[` + ctx + `]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := post(t, h, "/v1/knn/candidates", string(body))
		if rec.Code >= 500 {
			t.Fatalf("replica answered %d %s to %q", rec.Code, rec.Body, body)
		}
		if rec.Code != 200 {
			return
		}
		var req candidatesRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("200 for a body that does not decode (%v): %q", err, body)
		}
		var resp candidatesResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("undecodable 200 answer (%v): %s", err, rec.Body)
		}
		if len(resp.Results) != len(req.Contexts) {
			t.Fatalf("%d results for %d contexts", len(resp.Results), len(req.Contexts))
		}
		own := map[int]bool{}
		for _, g := range shards[req.Shard].global {
			own[g] = true
		}
		limit := math.Inf(1)
		if req.MaxDist != nil {
			limit = *req.MaxDist
		}
		for qi, list := range resp.Results {
			if len(list) > k {
				t.Fatalf("context %d: %d candidates, more than k = %d", qi, len(list), k)
			}
			for i, cd := range list {
				if !own[cd.Index] {
					t.Fatalf("context %d: candidate index %d is not one of shard %d's samples", qi, cd.Index, req.Shard)
				}
				if !(cd.Dist <= limit) {
					t.Fatalf("context %d: candidate %+v beyond max_dist %v", qi, cd, limit)
				}
				if i > 0 {
					if a := list[i-1]; !(a.Dist < cd.Dist || (a.Dist == cd.Dist && a.Index < cd.Index)) {
						t.Fatalf("context %d: candidates not ascending by (dist, index): %+v before %+v", qi, a, cd)
					}
				}
			}
		}
	})
}
