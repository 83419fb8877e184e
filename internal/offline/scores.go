// Package offline implements the paper's offline interestingness analysis
// (Section 3.1): computing raw interestingness scores for every recorded
// action, the two bias-free comparison methods — Reference-Based
// (Algorithm 1) and Normalized (Algorithm 2) — the derivation of the
// dominant measure i*(q), and the construction of labeled training sets of
// n-contexts (Section 3.2).
package offline

import (
	"context"
	"fmt"
	"strconv"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/faults"
	"repro/internal/measures"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/pipeline"
	"repro/internal/session"
	"repro/internal/stats"
)

// Telemetry handles (hoisted; see internal/obs). The "offline" stage span
// brackets the whole analysis; the sub-stages mark the raw-scoring,
// normalization and reference passes so `go tool trace` shows them.
var (
	stOffline   = obs.S("offline")
	stRawScore  = obs.S("offline.raw_scores")
	stNormalize = obs.S("offline.normalize")
	stReference = obs.S("offline.reference")

	mActionsScored = obs.C("offline.actions_scored")
	// mRawDropped counts actions whose raw scoring exhausted its retry
	// budget under fault injection: they keep an empty Raw map and fall
	// out of labeling downstream, the same shape as a node with no
	// dominant measure.
	mRawDropped = obs.C("offline.raw_scores.dropped")
)

// Method selects one of the two interestingness comparison methods.
type Method uint8

const (
	// ReferenceBased is Algorithm 1: rank an action's score against the
	// scores of alternative actions executed from the same parent display.
	ReferenceBased Method = iota
	// Normalized is Algorithm 2: Box-Cox transform + z-score
	// standardization against the log's score distribution.
	Normalized
)

// Methods lists both methods in canonical order.
var Methods = []Method{ReferenceBased, Normalized}

// String names the method as in the paper's tables.
func (m Method) String() string {
	switch m {
	case ReferenceBased:
		return "reference-based"
	case Normalized:
		return "normalized"
	default:
		return fmt.Sprintf("method(%d)", uint8(m))
	}
}

// ParseMethod is the inverse of Method.String, also accepting the CLI
// short forms "ref" and "norm".
func ParseMethod(s string) (Method, error) {
	switch s {
	case "reference-based", "ref":
		return ReferenceBased, nil
	case "normalized", "norm":
		return Normalized, nil
	default:
		return 0, fmt.Errorf("offline: unknown comparison method %q (want reference-based or normalized)", s)
	}
}

// NodeScores holds, for one recorded action (a non-root session node), the
// raw score of every measure plus the relative (bias-free) scores under
// each comparison method.
type NodeScores struct {
	Session *session.Session
	Node    *session.Node

	// Raw maps measure name -> i(q, d).
	Raw map[string]float64
	// RefRelative maps measure name -> percentile rank in [0, 1]: the
	// fraction of reference actions whose score does not exceed q's.
	RefRelative map[string]float64
	// NormRelative maps measure name -> standardized score (z units).
	NormRelative map[string]float64
}

// Relative returns the relative score map for the chosen method.
func (ns *NodeScores) Relative(m Method) map[string]float64 {
	if m == ReferenceBased {
		return ns.RefRelative
	}
	return ns.NormRelative
}

// Dominant returns the dominant measure(s) i*(q) within the measure set I
// under the given method — the members attaining the maximal relative
// score — together with that maximal score. Ties yield multiple names
// (the paper returns all tied measures).
func (ns *NodeScores) Dominant(I measures.Set, m Method) (names []string, best float64) {
	rel := ns.Relative(m)
	first := true
	const eps = 1e-12
	for _, msr := range I {
		v, ok := rel[msr.Name()]
		if !ok {
			continue
		}
		switch {
		case first || v > best+eps:
			best = v
			names = names[:0]
			names = append(names, msr.Name())
			first = false
		case v >= best-eps:
			names = append(names, msr.Name())
		}
	}
	return names, best
}

// scoreAction computes the raw scores of all measures for one action node.
func scoreAction(msrs []measures.Measure, s *session.Session, n *session.Node) map[string]float64 {
	ctx := &measures.Context{
		Action:  n.Action,
		Display: n.Display,
		Parent:  n.Parent.Display,
		Root:    s.Root().Display,
	}
	out := make(map[string]float64, len(msrs))
	for _, m := range msrs {
		out[m.Name()] = measures.ObservedScore(m, ctx)
	}
	return out
}

// Timings accumulates the per-component wall-clock costs reported in the
// paper's Table 3.
type Timings struct {
	// ActionExecution is time spent executing reference-set actions
	// (Reference-Based only).
	ActionExecution time.Duration
	// CalcInterestingness is time spent computing raw interestingness
	// scores (of the examined actions and, for Reference-Based, of the
	// reference actions).
	CalcInterestingness time.Duration
	// CalcRelative is time spent computing relative scores (ranking or
	// Box-Cox + z-score).
	CalcRelative time.Duration
	// ActionsScored counts examined actions, for per-action averages.
	ActionsScored int
}

// Total returns the summed duration.
func (t Timings) Total() time.Duration {
	return t.ActionExecution + t.CalcInterestingness + t.CalcRelative
}

// PerAction divides every component by the number of actions scored.
func (t Timings) PerAction() Timings {
	if t.ActionsScored == 0 {
		return t
	}
	n := time.Duration(t.ActionsScored)
	return Timings{
		ActionExecution:     t.ActionExecution / n,
		CalcInterestingness: t.CalcInterestingness / n,
		CalcRelative:        t.CalcRelative / n,
		ActionsScored:       1,
	}
}

// Analysis is the result of running the offline interestingness analysis
// over a repository: per-action scores under both comparison methods,
// ready for labeling and training-set construction with any measure
// configuration I.
type Analysis struct {
	Repo *session.Repository
	// Measures are the scored measures (the eight built-ins by default).
	Measures []measures.Measure
	// Nodes holds one entry per recorded action, in repository order.
	Nodes  []*NodeScores
	byNode map[*session.Node]*NodeScores
	// Normalizer holds the fitted Box-Cox + z-score parameters.
	Normalizer *Normalizer
	// RefTimings and NormTimings are the Table-3 component costs.
	RefTimings  Timings
	NormTimings Timings
	// Checkpoint is the progress manager when the analysis ran with
	// Options.CheckpointDir, nil otherwise; it records the reference
	// pass.
	Checkpoint *checkpoint.Manager
}

// ByNode returns the scores of a specific session node, or nil.
func (a *Analysis) ByNode(n *session.Node) *NodeScores { return a.byNode[n] }

// Options configures Analyze.
type Options struct {
	// Measures to score; nil means the eight built-ins.
	Measures []measures.Measure
	// RefLimit caps the reference set size per action (deterministic
	// subsample). <=0 means no cap (the paper's average was 115).
	RefLimit int
	// SkipReference skips the expensive Reference-Based pass (RefRelative
	// maps stay empty); used by callers that only need Normalized labels.
	SkipReference bool
	// MinRefs overrides MinReferenceSet, the smallest reference set the
	// Reference-Based method will rank against. <=0 means the default.
	MinRefs int
	// Seed drives reference subsampling.
	Seed uint64
	// RefBudget caps the wall-clock cost of a single reference-action
	// execution. An execution that overruns it is treated as failed
	// (abnormal), which can push the affected actions onto the
	// normalized-fallback rung of the degradation ladder. <=0 means no
	// budget.
	RefBudget time.Duration
	// Workers bounds the analysis fan-out (raw scoring, reference-set
	// execution, normalizer fits): <1 means one worker per CPU, 1 forces
	// the sequential path. Scores and labels are bit-identical at every
	// setting — reference subsampling stays on a single sequential RNG
	// stream and all per-action outputs are index-addressed (DESIGN.md,
	// "Determinism under fan-out").
	Workers int
	// CheckpointDir, when non-empty, persists crash-safe progress
	// checkpoints (internal/checkpoint) under this directory: the
	// reference pass's per-node results, behind an atomic checksummed
	// write. A run with SkipReference writes none.
	CheckpointDir string
	// Resume loads a compatible checkpoint from CheckpointDir and skips
	// the reference-pass nodes it records; the cheaper stages rerun.
	// Resume eligibility is fingerprinted over the repository content
	// and every result-affecting option; a mismatch fails loudly rather
	// than blending results from different inputs. A resumed analysis is
	// bit-identical to an uninterrupted one.
	Resume bool
	// CheckpointEvery overrides the reference-pass flush cadence
	// (completed nodes between checkpoint writes). <1 means 32.
	CheckpointEvery int
}

// Analyze runs the full offline analysis over every recorded action of the
// repository (Section 4.1: "We re-executed the recorded actions ... and
// computed their interestingness scores w.r.t. all measures").
func Analyze(repo *session.Repository, opts Options) (*Analysis, error) {
	return AnalyzeContext(nil, repo, opts)
}

// AnalyzeContext is Analyze with cancellation: a ctx that is canceled or
// exceeds its deadline stops the analysis between per-action work items
// and returns a typed *pipeline.Error naming the stage that was cut short
// ("offline.raw_scores", "offline.normalize" or "offline.reference") with
// partial-progress counts. A nil ctx never cancels.
func AnalyzeContext(ctx context.Context, repo *session.Repository, opts Options) (*Analysis, error) {
	sp := stOffline.Start()
	defer sp.End()
	msrs := opts.Measures
	if msrs == nil {
		msrs = measures.BuiltinMeasures()
	}
	a := &Analysis{
		Repo:     repo,
		Measures: msrs,
		byNode:   make(map[*session.Node]*NodeScores),
	}
	ck, err := openCheckpoint(repo, opts, msrs)
	if err != nil {
		return nil, pipeline.Wrap("offline.checkpoint", 0, 0, err)
	}
	a.Checkpoint = ck

	// Raw scores for every recorded action. This is the shared
	// "calculate interestingness" component; it is attributed to the
	// Normalized method's timing (the Reference-Based pass measures its
	// much larger reference-set scoring separately). The node list is
	// assembled sequentially (repository order fixes sample order
	// everywhere downstream), then the per-action scoring — independent
	// pure computations — fans out across the worker pool.
	spRaw := stRawScore.Start()
	t0 := time.Now()
	for _, s := range repo.Sessions() {
		for _, n := range s.Nodes()[1:] {
			ns := &NodeScores{
				Session:      s,
				Node:         n,
				RefRelative:  make(map[string]float64, len(msrs)),
				NormRelative: make(map[string]float64, len(msrs)),
			}
			a.Nodes = append(a.Nodes, ns)
			a.byNode[n] = ns
		}
	}
	done, rawErr := parallel.ForEachN(ctx, len(a.Nodes), opts.Workers, func(i int) {
		scoreActionGuarded(ctx, msrs, a.Nodes[i], i)
	})
	if rawErr != nil {
		spRaw.End()
		return nil, pipeline.Wrap("offline.raw_scores", done, len(a.Nodes), rawErr)
	}
	rawDur := time.Since(t0)
	spRaw.End()
	a.NormTimings.CalcInterestingness = rawDur
	a.NormTimings.ActionsScored = len(a.Nodes)
	a.RefTimings.ActionsScored = len(a.Nodes)
	mActionsScored.Add(uint64(len(a.Nodes)))

	// Normalized comparison (Algorithm 2).
	spNorm := stNormalize.Start()
	norm, err := FitNormalizer(ctx, msrs, a.Nodes, opts.Workers)
	if err != nil {
		spNorm.End()
		return nil, err
	}
	a.Normalizer = norm
	t1 := time.Now()
	done, applyErr := parallel.ForEachN(ctx, len(a.Nodes), opts.Workers, func(i int) {
		norm.Apply(a.Nodes[i].Raw, a.Nodes[i].NormRelative)
	})
	a.NormTimings.CalcRelative = time.Since(t1) + norm.FitDuration
	spNorm.End()
	if applyErr != nil {
		return nil, pipeline.Wrap("offline.normalize", done, len(a.Nodes), applyErr)
	}

	// Reference-Based comparison (Algorithm 1).
	if !opts.SkipReference {
		spRef := stReference.Start()
		err := applyReferenceBased(ctx, a, opts)
		spRef.End()
		if err != nil {
			return nil, err
		}
	}
	return a, nil
}

// scoreActionGuarded computes one action's raw scores behind the
// offline.raw_score fault probe: injected errors and panics retry with a
// fresh probe key, and on exhaustion the node keeps an empty Raw map (the
// degraded shape downstream code already tolerates). With the injector
// disarmed this is exactly scoreAction. The probe key is the repository
// position plus the action text — content, not call order — so the set of
// degraded nodes is identical at every worker count.
func scoreActionGuarded(ctx context.Context, msrs []measures.Measure, ns *NodeScores, idx int) {
	if !faults.Enabled() {
		ns.Raw = scoreAction(msrs, ns.Session, ns.Node)
		return
	}
	base := strconv.Itoa(idx) + ":" + ns.Node.Action.String()
	err := faults.Guard(ctx, faults.SiteOfflineRawScore, base, func() error {
		ns.Raw = scoreAction(msrs, ns.Session, ns.Node)
		return nil
	})
	if err != nil {
		mRawDropped.Inc()
		ns.Raw = map[string]float64{}
	}
}

// averageRelative is shared by reporting code: the mean of the per-action
// maximal relative scores under a method.
func averageRelative(a *Analysis, I measures.Set, m Method) float64 {
	vals := make([]float64, 0, len(a.Nodes))
	for _, ns := range a.Nodes {
		_, best := ns.Dominant(I, m)
		vals = append(vals, best)
	}
	return stats.Mean(vals)
}
