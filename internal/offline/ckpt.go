package offline

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"strings"

	"repro/internal/checkpoint"
	"repro/internal/faults"
	"repro/internal/measures"
	"repro/internal/obs"
	"repro/internal/session"
)

// ckptStageRef is the one stage a progress file records, named after the
// pipeline.Error stage tag of the reference pass, so an interrupted run's
// error and its resumable checkpoint describe the same place. The raw
// scores, the normalizer fit and the trained model are deterministic and
// cheap next to the reference pass, so a resumed run recomputes them
// (DESIGN.md §9); records of theirs in an older file are never read.
const ckptStageRef = "offline.reference"

// defaultCheckpointEvery is the reference-pass flush cadence: completed
// nodes between checkpoint writes. Reference execution dominates analysis
// cost by orders of magnitude, so a write every few dozen nodes bounds
// lost work to seconds while keeping write amplification negligible.
const defaultCheckpointEvery = 32

var mCkptNodesSkipped = obs.C("checkpoint.ref_nodes_skipped")

// refCkpt is the reference stage payload. Done/Rel are indexed by node
// position (not work order): a resumed run restores exactly the completed
// nodes' RefRelative maps and recomputes the rest, which — references
// being pure functions of (parent display, action) — reproduces the
// uninterrupted run bit for bit.
type refCkpt struct {
	Done []bool               `json:"done"`
	Rel  []map[string]float64 `json:"rel"`
}

// analysisFingerprint identifies the inputs of one analysis run: the
// repository content plus every result-affecting option. Workers is
// deliberately excluded (outputs are bit-identical at every width, see
// DESIGN.md §6), as are the checkpoint options themselves. The armed
// fault-injection spec is included: a checkpoint taken under one chaos
// configuration must not resume under another, or the merged output would
// match neither run.
func analysisFingerprint(repo *session.Repository, opts Options, msrs []measures.Measure) uint64 {
	h := fnv.New64a()
	io.WriteString(h, "idarepro-offline-v1\n")
	fmt.Fprintf(h, "repo=%016x\n", repo.Fingerprint())
	names := make([]string, len(msrs))
	for i, m := range msrs {
		names[i] = m.Name()
	}
	fmt.Fprintf(h, "measures=%s\n", strings.Join(names, ","))
	fmt.Fprintf(h, "reflimit=%d skipref=%v minrefs=%d seed=%d refbudget=%d\n",
		opts.RefLimit, opts.SkipReference, opts.MinRefs, opts.Seed, opts.RefBudget)
	if cfg, ok := faults.Active(); ok {
		fmt.Fprintf(h, "faults=p%v/s%d/k%s/sites%s\n",
			cfg.Prob, cfg.Seed, cfg.Kinds, strings.Join(cfg.Sites, ";"))
	}
	return h.Sum64()
}

// openCheckpoint prepares the analysis checkpoint manager per Options;
// nil when checkpointing is off.
func openCheckpoint(repo *session.Repository, opts Options, msrs []measures.Measure) (*checkpoint.Manager, error) {
	if opts.CheckpointDir == "" {
		return nil, nil
	}
	return checkpoint.Open(opts.CheckpointDir, analysisFingerprint(repo, opts, msrs), opts.Resume)
}

// loadRefStage returns the reference-pass progress record, sized to the
// node count: restored from a compatible checkpoint when resuming, fresh
// otherwise.
func loadRefStage(ck *checkpoint.Manager, nodes int) *refCkpt {
	fresh := &refCkpt{Done: make([]bool, nodes), Rel: make([]map[string]float64, nodes)}
	if ck == nil || !ck.Resumed() {
		return fresh
	}
	raw, _, ok := ck.Stage(ckptStageRef)
	if !ok {
		return fresh
	}
	var rc refCkpt
	if err := json.Unmarshal(raw, &rc); err != nil || len(rc.Done) != nodes || len(rc.Rel) != nodes {
		return fresh
	}
	return &rc
}
