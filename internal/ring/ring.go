// Package ring implements the consistent-hash placement layer of the
// replicated sharded serving tier (DESIGN.md §11): the trained model's
// labeled n-contexts are partitioned into a fixed number of shards, and
// each shard is placed on an R-way replica group of serve instances
// chosen deterministically by walking a consistent-hash circle of
// virtual nodes.
//
// Two placement functions matter and they are deliberately different:
//
//   - Sample → shard is a plain hash mod Shards. The shard count is part
//     of the model's serving topology (changing it re-partitions the
//     training set), so there is nothing to gain from consistency here —
//     what matters is that every process derives the identical partition
//     from the identical spec, bit for bit.
//
//   - Shard → nodes walks the consistent-hash circle. Nodes join and
//     leave as machines come and go; virtual nodes keep the walk's
//     placement balanced, and consistency keeps a node change from
//     reshuffling every shard's replica group at once.
//
// Because the session tree-edit distance is a metric without coordinates,
// hash partitioning has no spatial locality: a query's θ_δ-radius can —
// and in general does — span every shard, so the router scatters each
// query to all shards and merges the per-shard kNN candidate sets (the
// merge is exact: any global top-k neighbor is in its own shard's local
// top-k). The ring's job is therefore availability placement, not search
// pruning; see internal/serve's router for the fan-out itself.
//
// Everything here is a pure function of the Spec: no clocks, no
// randomness, no I/O after LoadSpec. Two processes loading the same
// ring.json agree on every placement decision without coordination.
package ring

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"sort"
	"strconv"

	"repro/internal/session"
)

// Node is one serve instance in the ring.
type Node struct {
	// Name is the node's stable identity (placement hashes it, health
	// state and metrics key on it). Must be unique within the spec.
	Name string `json:"name"`
	// Addr is the node's base URL, e.g. "http://10.0.0.3:8081".
	Addr string `json:"addr"`
}

// Spec is the serialized ring topology (ring.json): every process in the
// tier — replicas and routers alike — loads the same spec and derives the
// same placement from it.
type Spec struct {
	// Shards is the number of training-context partitions, at most 4096.
	// Changing it re-partitions the model, so it is fixed for a
	// topology's lifetime.
	Shards int `json:"shards"`
	// Replicas is the replica-group size R: every shard is served by R
	// distinct nodes (capped at len(Nodes)).
	Replicas int `json:"replicas"`
	// VNodes is the number of virtual nodes per physical node on the
	// hash circle, at most 4096; more virtual nodes smooth placement. <1
	// means 64.
	VNodes int `json:"vnodes,omitempty"`
	// Nodes are the member serve instances.
	Nodes []Node `json:"nodes"`
}

// Spec bounds: far above any useful topology (a shard needs training
// samples; a few hundred virtual nodes already balance placement), and
// low enough that New never sizes a slice from an absurd count.
const (
	maxShards = 1 << 12
	maxVNodes = 1 << 12
)

// Validate checks the spec for structural problems: shards outside
// [1, 4096], vnodes above 4096, missing counts, duplicate or empty node
// names, a replica factor no node set can honor.
func (s *Spec) Validate() error {
	if s.Shards < 1 || s.Shards > maxShards {
		return fmt.Errorf("ring: spec needs 1 <= shards <= %d, got %d", maxShards, s.Shards)
	}
	if s.VNodes > maxVNodes {
		return fmt.Errorf("ring: spec allows at most %d vnodes, got %d", maxVNodes, s.VNodes)
	}
	if s.Replicas < 1 {
		return errors.New("ring: spec needs replicas >= 1")
	}
	if len(s.Nodes) == 0 {
		return errors.New("ring: spec has no nodes")
	}
	if s.Replicas > len(s.Nodes) {
		return fmt.Errorf("ring: %d replicas requested but only %d nodes", s.Replicas, len(s.Nodes))
	}
	seen := make(map[string]bool, len(s.Nodes))
	for i, n := range s.Nodes {
		if n.Name == "" {
			return fmt.Errorf("ring: node %d has no name", i)
		}
		if n.Addr == "" {
			return fmt.Errorf("ring: node %q has no addr", n.Name)
		}
		if seen[n.Name] {
			return fmt.Errorf("ring: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
	}
	return nil
}

// LoadSpec reads and validates a ring.json.
func LoadSpec(path string) (*Spec, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("ring: %w", err)
	}
	var s Spec
	if err := json.Unmarshal(blob, &s); err != nil {
		return nil, fmt.Errorf("ring: parse %s: %w", path, err)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("ring: %s: %w", path, err)
	}
	return &s, nil
}

// point is one virtual node on the hash circle.
type point struct {
	hash uint64
	node int // index into Ring.nodes
}

// Ring is the resolved placement: the sorted virtual-node circle plus
// the per-shard replica groups, computed once at construction.
type Ring struct {
	spec   Spec
	points []point
	// groups[s] is shard s's replica group, preference-ordered by the
	// circle walk (the first entry is the shard's primary).
	groups [][]Node
}

// New resolves a validated spec into a ring.
func New(spec *Spec) (*Ring, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	s := *spec
	s.Nodes = append([]Node(nil), spec.Nodes...)
	vn := s.VNodes
	if vn < 1 {
		vn = 64
	}
	r := &Ring{spec: s}
	r.points = make([]point, 0, len(s.Nodes)*vn)
	for ni, n := range s.Nodes {
		for v := 0; v < vn; v++ {
			r.points = append(r.points, point{hash: hash64("node:" + n.Name + "#" + strconv.Itoa(v)), node: ni})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full-64-bit hash collision is vanishingly unlikely, but the
		// sort must still be total and spec-deterministic.
		return r.points[i].node < r.points[j].node
	})
	r.groups = make([][]Node, s.Shards)
	for sh := 0; sh < s.Shards; sh++ {
		r.groups[sh] = r.walk(hash64("shard:"+strconv.Itoa(sh)), s.Replicas)
	}
	return r, nil
}

// walk collects the first want distinct nodes clockwise from h.
func (r *Ring) walk(h uint64, want int) []Node {
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	group := make([]Node, 0, want)
	seen := make(map[int]bool, want)
	for i := 0; i < len(r.points) && len(group) < want; i++ {
		p := r.points[(start+i)%len(r.points)]
		if seen[p.node] {
			continue
		}
		seen[p.node] = true
		group = append(group, r.spec.Nodes[p.node])
	}
	return group
}

// Spec returns a copy of the resolved spec.
func (r *Ring) Spec() Spec {
	s := r.spec
	s.Nodes = append([]Node(nil), r.spec.Nodes...)
	return s
}

// Shards returns the shard count.
func (r *Ring) Shards() int { return r.spec.Shards }

// Nodes returns the member nodes in spec order.
func (r *Ring) Nodes() []Node { return append([]Node(nil), r.spec.Nodes...) }

// ReplicaGroup returns shard's replica group in circle-walk preference
// order (the first node is the primary). The returned slice is shared;
// callers must not mutate it.
func (r *Ring) ReplicaGroup(shard int) []Node {
	if shard < 0 || shard >= len(r.groups) {
		return nil
	}
	return r.groups[shard]
}

// SampleKey is the canonical placement key of a training context: its
// session.Key identity, the one the fault injector and the serving layer
// key on.
func SampleKey(sessionID string, t, n int) string {
	return session.Key(sessionID, t, n)
}

// ShardOf maps a placement key to its owning shard: a pure hash mod
// Shards, identical in every process that loaded this spec.
func (r *Ring) ShardOf(key string) int {
	return int(hash64("sample:"+key) % uint64(r.spec.Shards))
}

// NodeShards lists the shards whose replica groups include the named
// node, ascending — the partitions a replica process must load and serve.
func (r *Ring) NodeShards(name string) []int {
	var out []int
	for sh, group := range r.groups {
		for _, n := range group {
			if n.Name == name {
				out = append(out, sh)
				break
			}
		}
	}
	return out
}

// Node resolves a node by name.
func (r *Ring) Node(name string) (Node, bool) {
	for _, n := range r.spec.Nodes {
		if n.Name == name {
			return n, true
		}
	}
	return Node{}, false
}

// hash64 is FNV-1a finished with a murmur3 fmix64 avalanche — the same
// construction internal/faults uses for its deterministic probe
// decisions: cheap, dependency-free, and uniform enough in the high bits
// for both the circle positions and the mod-Shards split.
func hash64(key string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * prime
	}
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	h *= 0xC4CEB9FE1A85EC53
	h ^= h >> 33
	return h
}
