package ring

import (
	"encoding/json"
	"testing"
)

// FuzzRingSpec drives the ring.json path — decode, then New — with
// hostile specs. New must return an error or a ring, never panic (a huge
// shards or vnodes count once crashed slice allocation), and every
// accepted spec must give each shard a replica group of exactly Replicas
// distinct nodes.
func FuzzRingSpec(f *testing.F) {
	good, err := json.Marshal(threeNodeSpec())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"shards":16,"replicas":1,"vnodes":8,"nodes":[{"name":"a","addr":"x"},{"name":"b","addr":"y"}]}`))
	f.Add([]byte(`{"shards":4611686018427387904,"replicas":1,"nodes":[{"name":"a","addr":"x"}]}`))
	f.Add([]byte(`{"shards":1,"replicas":1,"vnodes":4611686018427387904,"nodes":[{"name":"a","addr":"x"}]}`))
	f.Add([]byte(`{"shards":1,"replicas":1,"vnodes":-5,"nodes":[{"name":"a","addr":"x"}]}`))
	f.Add([]byte(`{"shards":2,"replicas":3,"nodes":[{"name":"a","addr":"x"},{"name":"a","addr":"y"}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`null`))

	f.Fuzz(func(t *testing.T, data []byte) {
		var spec Spec
		if json.Unmarshal(data, &spec) != nil {
			return
		}
		r, err := New(&spec)
		if err != nil {
			return
		}
		for sh := 0; sh < r.Shards(); sh++ {
			group := r.ReplicaGroup(sh)
			if len(group) != spec.Replicas {
				t.Fatalf("shard %d has %d replicas, want %d", sh, len(group), spec.Replicas)
			}
			seen := make(map[string]bool, len(group))
			for _, n := range group {
				if seen[n.Name] {
					t.Fatalf("shard %d lists node %q twice", sh, n.Name)
				}
				seen[n.Name] = true
			}
		}
	})
}
