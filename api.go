// Package repro is a from-scratch Go reproduction of
//
//	Milo, Ozeri, Somech: "Predicting 'What is Interesting' by Mining
//	Interactive-Data-Analysis Session Logs", EDBT 2019.
//
// It implements the paper's full stack: a generic IDA model (datasets,
// filter/group-and-aggregate actions, displays, session trees), the eight
// interestingness measures of Table 1, the two offline interestingness
// comparison methods (Reference-Based, Algorithm 1; Normalized with
// Box-Cox + z-score, Algorithm 2), n-context extraction, the tree-edit
// session distance, and the I-kNN predictive model with its RANDOM /
// Best-SM / I-SVM baselines — plus a calibrated simulator standing in for
// the REACT-IDA session log.
//
// This root package is the public facade; the subsystems live in
// internal/ packages and are re-exported here through type aliases, so
// the whole pipeline is drivable from a single import:
//
//	fw, _ := repro.GenerateBenchmark(repro.SimulatorConfig{})
//	_ = fw.RunOfflineAnalysis(repro.AnalysisOptions{})
//	pred, _ := fw.TrainPredictor(repro.DefaultMeasureSet(), repro.Normalized, repro.DefaultPredictorConfig(repro.Normalized))
//	label, ok := pred.PredictState(state)
package repro

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/checkpoint"
	"repro/internal/dataset"
	"repro/internal/distance"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/knn"
	"repro/internal/measures"
	"repro/internal/netlog"
	"repro/internal/offline"
	"repro/internal/pipeline"
	"repro/internal/ring"
	"repro/internal/serve"
	"repro/internal/session"
	"repro/internal/simulate"
	"repro/internal/snapshot"
)

// Re-exported types: the data substrate.
type (
	// Table is an immutable, typed, columnar relational table.
	Table = dataset.Table
	// Schema describes a table's columns.
	Schema = dataset.Schema
	// Value is a dynamically typed cell value.
	Value = dataset.Value

	// Action is one analysis step (filter or group-and-aggregate).
	Action = engine.Action
	// Predicate is a single-column filter comparison.
	Predicate = engine.Predicate
	// Display is the results screen an action produces.
	Display = engine.Display

	// Session is an IDA session modeled as an ordered labeled tree.
	Session = session.Session
	// State is a session state S_t.
	State = session.State
	// NContext is the n-context c_t of a session state.
	NContext = session.Context
	// Repository is a session log repository.
	Repository = session.Repository

	// Measure scores one interestingness facet.
	Measure = measures.Measure
	// MeasureSet is an ordered measure configuration (the paper's I).
	MeasureSet = measures.Set
	// MeasureClass is an interestingness facet.
	MeasureClass = measures.Class

	// Method selects an offline comparison method.
	Method = offline.Method
	// Analysis holds offline per-action relative scores.
	Analysis = offline.Analysis
	// AnalysisOptions configures RunOfflineAnalysis.
	AnalysisOptions = offline.Options
	// Sample is a labeled training example.
	Sample = offline.Sample

	// SimulatorConfig configures benchmark generation.
	SimulatorConfig = simulate.Config
	// NetlogConfig configures the synthetic dataset generator.
	NetlogConfig = netlog.Config

	// Metrics are the five evaluation metrics of Section 4.2.
	Metrics = eval.Metrics

	// PipelineError is the typed failure of one pipeline stage: it names
	// the stage that stopped (e.g. "offline.reference", "knn.predict_all"),
	// carries the underlying cause (unwrappable to context.Canceled /
	// context.DeadlineExceeded), and reports partial progress (Done/Total
	// items). Every context-taking entry point of this package returns one
	// on cancellation, deadline expiry, or a recovered panic.
	PipelineError = pipeline.Error

	// FallbackPolicy selects what an abstaining kNN prediction degrades
	// to (PredictorConfig.Fallback).
	FallbackPolicy = knn.FallbackPolicy
)

// kNN fallback policies (the kNN rung of the degradation ladder).
const (
	// FallbackAbstain keeps abstentions (the paper's semantics; default).
	FallbackAbstain = knn.FallbackAbstain
	// FallbackNearest re-votes over the k nearest neighbors ignoring θ_δ.
	FallbackNearest = knn.FallbackNearest
	// FallbackPrior answers with the training set's most common label.
	FallbackPrior = knn.FallbackPrior
)

// ParseFallbackPolicy parses a fallback policy name ("abstain",
// "nearest" or "prior"), the inverse of FallbackPolicy.String.
func ParseFallbackPolicy(s string) (FallbackPolicy, error) {
	return knn.ParseFallbackPolicy(s)
}

// IsCanceled reports whether err (at any wrap depth) is a context
// cancellation or deadline expiry.
func IsCanceled(err error) bool { return pipeline.Canceled(err) }

// Comparison methods.
const (
	// ReferenceBased is Algorithm 1.
	ReferenceBased = offline.ReferenceBased
	// Normalized is Algorithm 2.
	Normalized = offline.Normalized
)

// DefaultMeasureSet returns the canonical one-per-class configuration
// {Variance, Schutz, OSF, Compaction Gain}.
func DefaultMeasureSet() MeasureSet { return measures.DefaultSet() }

// AllMeasureConfigurations returns the paper's 16 one-per-class
// configurations of I.
func AllMeasureConfigurations() []MeasureSet { return measures.AllConfigurations() }

// BuiltinMeasures returns the eight Table-1 measures.
func BuiltinMeasures() []Measure { return measures.BuiltinMeasures() }

// Framework bundles a session repository with its offline analysis and is
// the entry point for training predictors and reproducing the paper's
// experiments.
type Framework struct {
	// Repo is the session repository R.
	Repo *Repository
	// Analysis is populated by RunOfflineAnalysis.
	Analysis *Analysis
}

// GenerateBenchmark creates the four synthetic network-log datasets and
// simulates an analyst session log over them (the stand-in for REACT-IDA).
func GenerateBenchmark(cfg SimulatorConfig) (*Framework, error) {
	repo, err := simulate.Generate(cfg)
	if err != nil {
		return nil, err
	}
	return &Framework{Repo: repo}, nil
}

// NewFramework wraps an existing repository.
func NewFramework(repo *Repository) *Framework { return &Framework{Repo: repo} }

// NewRepository returns an empty session repository; register datasets
// with Repository.AddDataset and load logs with Repository.LoadLogFile.
func NewRepository() *Repository { return session.NewRepository() }

// RunOfflineAnalysis computes raw and relative interestingness scores for
// every recorded action under both comparison methods (Section 3.1).
func (f *Framework) RunOfflineAnalysis(opts AnalysisOptions) error {
	return f.RunOfflineAnalysisContext(nil, opts)
}

// RunOfflineAnalysisContext is RunOfflineAnalysis with cancellation: when
// ctx is canceled or its deadline expires, the analysis stops between
// per-action work items and a *PipelineError naming the interrupted stage
// is returned; f.Analysis is left unchanged. Panics escaping the analysis
// are recovered at this boundary and returned as a *PipelineError, so one
// poisoned session or action cannot kill the caller. A nil ctx never
// cancels.
func (f *Framework) RunOfflineAnalysisContext(ctx context.Context, opts AnalysisOptions) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = pipeline.Recovered("api.offline", r)
		}
	}()
	a, err := offline.AnalyzeContext(ctx, f.Repo, opts)
	if err != nil {
		return err
	}
	f.Analysis = a
	return nil
}

// PredictorConfig carries the model hyper-parameters of Table 4.
type PredictorConfig struct {
	// N is the n-context size.
	N int
	// K is the kNN size.
	K int
	// ThetaDelta is the distance threshold θ_δ.
	ThetaDelta float64
	// ThetaI is the interestingness threshold θ_I (method-scaled).
	ThetaI float64
	// Fallback selects the degradation policy applied when the model
	// abstains. The zero value (FallbackAbstain) preserves the paper's
	// abstention semantics exactly.
	Fallback FallbackPolicy
}

// DefaultPredictorConfig returns the paper's default configuration for a
// comparison method (Table 4).
func DefaultPredictorConfig(m Method) PredictorConfig {
	n, cfg := eval.DefaultKNN(m)
	return PredictorConfig{N: n, K: cfg.K, ThetaDelta: cfg.ThetaDelta, ThetaI: cfg.ThetaI}
}

// Predictor is the trained I-kNN model: it selects the most suitable
// interestingness measure for a session state from the state's n-context.
type Predictor struct {
	clf    *knn.Classifier
	I      MeasureSet
	method Method
	cfg    PredictorConfig
	// norm is the fitted Algorithm-2 normalization state captured at
	// training time so a snapshot can carry it (nil when the analysis
	// had no normalizer).
	norm *offline.Normalizer
	// checksum is the whole-file hash of the snapshot this predictor was
	// loaded from (empty when trained in-process) — the identity the ring
	// repair loop compares across replicas.
	checksum string
}

// ckptStageTrain is the training-stage checkpoint record: the complete
// snapshot.Model, written once training finishes. Named after the
// "api.train" pipeline stage it protects.
const ckptStageTrain = "api.train"

// TrainPredictor builds the labeled training set for (I, method) and
// constructs the kNN model. RunOfflineAnalysis must have been called.
func (f *Framework) TrainPredictor(I MeasureSet, method Method, cfg PredictorConfig) (*Predictor, error) {
	return f.TrainPredictorContext(nil, I, method, cfg)
}

// TrainPredictorContext is TrainPredictor with cancellation and boundary
// panic isolation: a ctx canceled before or during training-set
// construction returns a *PipelineError for the "api.train" stage, and
// panics escaping the build are recovered into the same type. A nil ctx
// never cancels.
func (f *Framework) TrainPredictorContext(ctx context.Context, I MeasureSet, method Method, cfg PredictorConfig) (p *Predictor, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, pipeline.Recovered("api.train", r)
		}
	}()
	if f.Analysis == nil {
		return nil, fmt.Errorf("repro: TrainPredictor requires RunOfflineAnalysis first")
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, pipeline.Wrap("api.train", 0, 0, ctx.Err())
	}
	if cfg.N < 1 {
		fallback := cfg.Fallback
		cfg = DefaultPredictorConfig(method)
		cfg.Fallback = fallback
	}
	ck := f.Analysis.Checkpoint
	if p := resumeTrainedModel(ck, I, method, cfg); p != nil {
		return p, nil
	}
	samples := offline.BuildTrainingSet(f.Analysis, I, offline.TrainingOptions{
		N:              cfg.N,
		Method:         method,
		ThetaI:         cfg.ThetaI,
		SuccessfulOnly: true,
	})
	if len(samples) == 0 {
		return nil, fmt.Errorf("repro: training set is empty (θ_I too strict?)")
	}
	if ctx != nil && ctx.Err() != nil {
		return nil, pipeline.Wrap("api.train", 0, 0, ctx.Err())
	}
	clf := knn.New(samples, distance.TreeEdit{}, knn.Config{
		K:          cfg.K,
		ThetaDelta: cfg.ThetaDelta,
		Fallback:   cfg.Fallback,
	})
	p = &Predictor{clf: clf, I: I, method: method, cfg: cfg, norm: f.Analysis.Normalizer}
	if ck != nil {
		// Persist the finished model so a killed-and-resumed run skips
		// training entirely and re-serializes these exact bytes.
		_ = ck.Update(ckptStageTrain, checkpoint.Progress{Done: 1, Total: 1, Complete: true}, p.buildModel())
		_ = ck.Sync()
	}
	return p, nil
}

// resumeTrainedModel restores a predictor from a completed train-stage
// checkpoint, or returns nil when there is none (or it was taken under a
// different model configuration — the analysis fingerprint already
// matched, so a config echo mismatch means the caller changed the train
// request, and the honest move is to retrain, not to resume the wrong
// model). Restore failures, a model Validate refuses included, also fall
// back to retraining: the checkpoint is advisory, never load-bearing for
// correctness.
func resumeTrainedModel(ck *checkpoint.Manager, I MeasureSet, method Method, cfg PredictorConfig) *Predictor {
	if ck == nil || !ck.Resumed() {
		return nil
	}
	raw, prog, ok := ck.Stage(ckptStageTrain)
	if !ok || !prog.Complete {
		return nil
	}
	var m snapshot.Model
	if err := json.Unmarshal(raw, &m); err != nil || m.Validate() != nil {
		return nil
	}
	names := I.Names()
	if m.Method != method.String() || len(m.Measures) != len(names) ||
		m.N != cfg.N || m.K != cfg.K || m.ThetaDelta != cfg.ThetaDelta ||
		m.ThetaI != cfg.ThetaI || m.Fallback != cfg.Fallback.String() {
		return nil
	}
	for i, n := range names {
		if m.Measures[i] != n {
			return nil
		}
	}
	p, err := predictorFromModel(&m)
	if err != nil {
		return nil
	}
	return p
}

// TrainingSize returns the number of labeled samples behind the model.
func (p *Predictor) TrainingSize() int { return len(p.clf.Samples()) }

// Config returns the model's hyper-parameters.
func (p *Predictor) Config() PredictorConfig { return p.cfg }

// Method returns the comparison method the model was trained under.
func (p *Predictor) Method() Method { return p.method }

// SetWorkers bounds the prediction fan-out width (<1 means one worker per
// CPU, 1 forces the sequential path) — a deployment knob, not a model
// parameter: snapshots do not carry it, and predictions are
// bit-identical at every setting. Set it before serving traffic; a
// server's hot reload keeps it (see SnapshotReloader).
func (p *Predictor) SetWorkers(n int) { p.clf.SetWorkers(n) }

// MeasureSet returns the measure configuration the model predicts over.
func (p *Predictor) MeasureSet() MeasureSet { return p.I }

// Predict selects the most suitable measure for an n-context. ok is false
// when the model abstains (no sufficiently similar training contexts).
func (p *Predictor) Predict(ctx *NContext) (measureName string, ok bool) {
	pred := p.clf.Predict(ctx)
	return pred.Label, pred.Covered
}

// PredictContext is Predict with cancellation and boundary panic
// isolation: a canceled ctx (or a panic escaping the scan) returns a
// *PipelineError instead of a prediction. A nil ctx never cancels.
func (p *Predictor) PredictContext(ctx context.Context, query *NContext) (measureName string, ok bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			measureName, ok, err = "", false, pipeline.Recovered("api.predict", r)
		}
	}()
	pred, err := p.clf.PredictCtx(ctx, query)
	if err != nil {
		return "", false, err
	}
	return pred.Label, pred.Covered, nil
}

// PredictState extracts the state's n-context (with the model's configured
// n) and predicts.
func (p *Predictor) PredictState(st State) (measureName string, ok bool) {
	return p.Predict(session.Extract(st, p.cfg.N))
}

// BatchPrediction is one result of Predictor.PredictAll. OK is false when
// the model abstained for that context. Fallback is true when the
// prediction came from the configured FallbackPolicy rather than the
// θ_δ-gated vote.
type BatchPrediction struct {
	MeasureName string
	OK          bool
	Fallback    bool
}

// PredictAll predicts a batch of n-contexts, fanning the queries out
// across the model's worker pool. The result is index-aligned with ctxs
// and identical to calling Predict per context.
func (p *Predictor) PredictAll(ctxs []*NContext) []BatchPrediction {
	out, _ := p.PredictAllContext(nil, ctxs)
	return out
}

// PredictAllContext is PredictAll with cancellation and boundary panic
// isolation: a canceled ctx stops the batch between queries and returns
// the partial result slice alongside a *PipelineError carrying how many
// predictions completed. A nil ctx never cancels.
func (p *Predictor) PredictAllContext(ctx context.Context, ctxs []*NContext) (out []BatchPrediction, err error) {
	defer func() {
		if r := recover(); r != nil {
			out, err = nil, pipeline.Recovered("api.predict_all", r)
		}
	}()
	preds, err := p.clf.PredictAllCtx(ctx, ctxs)
	out = make([]BatchPrediction, len(preds))
	for i, pr := range preds {
		out[i] = BatchPrediction{MeasureName: pr.Label, OK: pr.Covered, Fallback: pr.Fallback}
	}
	return out, err
}

// Measure resolves a predicted measure name to its implementation within
// the model's configuration.
func (p *Predictor) Measure(name string) (Measure, error) {
	if i := p.I.Index(name); i >= 0 {
		return p.I[i], nil
	}
	return nil, fmt.Errorf("repro: measure %q is not in the model's configuration %v", name, p.I.Names())
}

// buildModel assembles the serializable form of the trained model:
// hyper-parameters, measure names, normalization state, and every
// training context with its labels, displays interned in a shared pool
// (see internal/snapshot). Each save builds it afresh from the
// classifier, so a loaded predictor holds no wire model: re-encoding a
// decoded snapshot reproduces its bytes, the property the
// kill-resume-compare chaos test pins down.
func (p *Predictor) buildModel() *snapshot.Model {
	m := &snapshot.Model{
		Method:     p.method.String(),
		Measures:   p.I.Names(),
		N:          p.cfg.N,
		K:          p.cfg.K,
		ThetaDelta: p.cfg.ThetaDelta,
		ThetaI:     p.cfg.ThetaI,
		Fallback:   p.cfg.Fallback.String(),
	}
	if p.norm != nil {
		m.Norms = p.norm.Params
	}
	pool := snapshot.NewPool()
	m.Samples = make([]snapshot.SampleRec, len(p.clf.Samples()))
	for i, s := range p.clf.Samples() {
		m.Samples[i] = snapshot.SampleRec{
			Context: snapshot.EncodeContext(s.Context, pool),
			Labels:  append([]string(nil), s.Labels...),
			Best:    s.Best,
		}
	}
	m.Displays = pool.Displays()
	return m
}

// WriteSnapshot serializes the trained model to w in the versioned
// snapshot format (see internal/snapshot): a restored predictor produces
// bit-identical predictions, abstentions included.
func (p *Predictor) WriteSnapshot(w io.Writer) error {
	return snapshot.Write(w, p.buildModel())
}

// Save writes the model snapshot to a file path atomically: a crash or
// write error mid-save never leaves a truncated snapshot visible.
func (p *Predictor) Save(path string) error {
	return snapshot.Save(path, p.buildModel())
}

// ReadPredictor reconstructs a predictor from a snapshot stream. Measure
// names resolve against the built-in registry — models configured with
// user-defined (Func) measures cannot be restored by name and fail here.
// Trailing sections, such as the metric index older builds appended, are
// verified and discarded (see internal/snapshot).
func ReadPredictor(r io.Reader) (*Predictor, error) {
	m, err := snapshot.Read(r)
	if err != nil {
		return nil, err
	}
	return predictorFromModel(m)
}

// LoadPredictor reads a model snapshot from a file path (the counterpart
// of Predictor.Save). The predictor remembers the file's whole-file
// checksum, which /v1/model reports so the ring repair loop can compare
// replica snapshots without re-downloading them.
func LoadPredictor(path string) (*Predictor, error) {
	m, err := snapshot.Load(path)
	if err != nil {
		return nil, err
	}
	p, err := predictorFromModel(m)
	if err != nil {
		return nil, err
	}
	if sum, err := snapshot.FileChecksum(path); err == nil {
		p.checksum = sum
	}
	return p, nil
}

// predictorFromModel rebuilds a predictor from a model Validate accepted,
// so the method, fallback and measure names all resolve.
func predictorFromModel(m *snapshot.Model) (*Predictor, error) {
	method, _ := offline.ParseMethod(m.Method)
	fb, _ := knn.ParseFallbackPolicy(m.Fallback)
	reg := measures.NewRegistry()
	I := make(MeasureSet, len(m.Measures))
	for i, name := range m.Measures {
		I[i], _ = reg.Get(name)
	}
	displays := snapshot.DecodeDisplays(m.Displays)
	samples := make([]*offline.Sample, len(m.Samples))
	for i, rec := range m.Samples {
		ctx, err := snapshot.DecodeContext(rec.Context, displays)
		if err != nil {
			return nil, fmt.Errorf("repro: load predictor: sample %d: %w", i, err)
		}
		samples[i] = &offline.Sample{Context: ctx, Labels: rec.Labels, Best: rec.Best}
	}
	cfg := PredictorConfig{
		N:          m.N,
		K:          m.K,
		ThetaDelta: m.ThetaDelta,
		ThetaI:     m.ThetaI,
		Fallback:   fb,
	}
	clf := knn.New(samples, distance.TreeEdit{}, knn.Config{
		K:          cfg.K,
		ThetaDelta: cfg.ThetaDelta,
		Fallback:   cfg.Fallback,
	})
	p := &Predictor{clf: clf, I: I, method: method, cfg: cfg}
	if len(m.Norms) > 0 {
		p.norm = &offline.Normalizer{Params: m.Norms}
	}
	return p, nil
}

// Serving layer re-exports.
type (
	// ServeOptions bounds the HTTP prediction server's resource envelope
	// (in-flight requests, batch size) and names its hot-reload source
	// and ring role.
	ServeOptions = serve.Options
	// ServeModelInfo is the model description part of /v1/model.
	ServeModelInfo = serve.ModelInfo
	// ServeModelStatus is the full /v1/model response: the model
	// description plus reload generation and load time.
	ServeModelStatus = serve.ModelStatus
	// ServeReloader builds a replacement model for hot reload (see
	// SnapshotReloader for the snapshot-file-backed implementation).
	ServeReloader = serve.Reloader
)

// SnapshotReloader returns a reloader that re-reads the model snapshot
// at path on every reload: wire it into ServeOptions.Reloader and a
// SIGHUP (or POST /v1/admin/reload) swaps in whatever model the file
// holds — after checksum verification, Validate and a self-test,
// atomically, with in-flight requests finishing on the model they
// started with. The swapped-in model scans with the serving model's
// worker count, so SetWorkers outlives every reload.
func SnapshotReloader(path string) ServeReloader {
	return func() (*knn.Classifier, ServeModelInfo, error) {
		p, err := LoadPredictor(path)
		if err != nil {
			return nil, ServeModelInfo{}, err
		}
		return p.clf, p.modelInfo(), nil
	}
}

// EncodeWireContext converts an n-context to the self-contained JSON wire
// form the prediction server accepts (the "context"/"contexts" request
// fields).
func EncodeWireContext(c *NContext) *snapshot.WireContext {
	return snapshot.EncodeContext(c, nil)
}

// modelInfo describes the predictor for /v1/model.
func (p *Predictor) modelInfo() ServeModelInfo {
	return ServeModelInfo{
		Method:       p.method.String(),
		Measures:     p.I.Names(),
		N:            p.cfg.N,
		K:            p.cfg.K,
		ThetaDelta:   p.cfg.ThetaDelta,
		ThetaI:       p.cfg.ThetaI,
		Fallback:     p.cfg.Fallback.String(),
		TrainingSize: p.TrainingSize(),
		Prior:        p.clf.Prior(),
		Checksum:     p.checksum,
	}
}

// NewServer wraps the predictor in an HTTP prediction server (see
// internal/serve for the endpoint surface and degradation behavior).
func (p *Predictor) NewServer(opts ServeOptions) *serve.Server {
	return serve.New(p.clf, p.modelInfo(), opts)
}

// Handler returns the predictor's HTTP handler — /healthz, /readyz,
// /v1/model, /v1/predict, /v1/predict/batch — for mounting under an
// existing server or httptest.
func (p *Predictor) Handler(opts ServeOptions) http.Handler {
	return p.NewServer(opts).Handler()
}

// Serve runs the HTTP prediction server on addr until ctx is canceled,
// then drains gracefully (readiness flips first, in-flight requests
// complete). A clean drain returns nil.
func (p *Predictor) Serve(ctx context.Context, addr string, opts ServeOptions) error {
	return p.NewServer(opts).Run(ctx, addr)
}

// Sharded serving tier re-exports (DESIGN.md §11).
type (
	// RingSpec is the serialized ring topology (ring.json): shard count,
	// replica factor, and member nodes.
	RingSpec = ring.Spec
	// RingNode is one serve instance in a ring spec.
	RingNode = ring.Node
	// RingRouterOptions configures the fan-out router tier.
	RingRouterOptions = serve.RouterOptions
)

// LoadRingSpec reads and validates a ring.json topology file.
func LoadRingSpec(path string) (*RingSpec, error) { return ring.LoadSpec(path) }

// NewShardServer wraps the predictor in a ring-replica server: besides
// the full standalone endpoint surface, it partitions the training set
// by the spec's placement and serves kNN candidates for the shards the
// ring places on node (POST /v1/knn/candidates). The named node must be
// a member of the spec.
func (p *Predictor) NewShardServer(spec *RingSpec, node string, opts ServeOptions) (*serve.Server, error) {
	r, err := ring.New(spec)
	if err != nil {
		return nil, err
	}
	if _, ok := r.Node(node); !ok {
		return nil, fmt.Errorf("repro: node %q is not in the ring spec", node)
	}
	opts.Ring = r
	opts.NodeName = node
	return serve.New(p.clf, p.modelInfo(), opts), nil
}

// NewRingRouter builds the scatter-gather router for a ring topology.
// The snapshot at modelPath supplies the merge parameters (gate, vote,
// fallback, prior) and the reference checksum the repair loop pushes
// toward; it must be the same snapshot the replicas serve.
func NewRingRouter(modelPath string, spec *RingSpec, opts RingRouterOptions) (*serve.Router, error) {
	p, err := LoadPredictor(modelPath)
	if err != nil {
		return nil, err
	}
	r, err := ring.New(spec)
	if err != nil {
		return nil, err
	}
	opts.Info = p.modelInfo()
	opts.Cfg = p.clf.Config()
	opts.ModelPath = modelPath
	return serve.NewRouter(r, opts), nil
}
