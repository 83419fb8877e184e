package offline

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/measures"
	"repro/internal/netlog"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/simulate"
)

func ckptRepo(t *testing.T) *session.Repository {
	t.Helper()
	repo, err := simulate.Generate(simulate.Config{
		Analysts:      4,
		Sessions:      16,
		MeanActions:   4.0,
		Seed:          11,
		DatasetConfig: netlog.Config{Rows: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	return repo
}

func assertAnalysesEqual(t *testing.T, want, got *Analysis) {
	t.Helper()
	if len(got.Nodes) != len(want.Nodes) {
		t.Fatalf("%d nodes, want %d", len(got.Nodes), len(want.Nodes))
	}
	for i := range want.Nodes {
		w, g := want.Nodes[i], got.Nodes[i]
		if !reflect.DeepEqual(g.Raw, w.Raw) {
			t.Fatalf("node %d: Raw diverged\n got %v\nwant %v", i, g.Raw, w.Raw)
		}
		if !reflect.DeepEqual(g.NormRelative, w.NormRelative) {
			t.Fatalf("node %d: NormRelative diverged\n got %v\nwant %v", i, g.NormRelative, w.NormRelative)
		}
		if !reflect.DeepEqual(g.RefRelative, w.RefRelative) {
			t.Fatalf("node %d: RefRelative diverged\n got %v\nwant %v", i, g.RefRelative, w.RefRelative)
		}
	}
	if !reflect.DeepEqual(got.Normalizer.Params, want.Normalizer.Params) {
		t.Fatal("normalizer params diverged")
	}
}

// TestResumeFromPartialCheckpoint crafts a half-finished checkpoint from a
// complete run's results — exactly what a kill mid-reference-pass leaves
// behind — and asserts the resumed analysis is identical to the
// uninterrupted one while actually skipping the checkpointed nodes.
func TestResumeFromPartialCheckpoint(t *testing.T) {
	repo := ckptRepo(t)
	opts := Options{RefLimit: 12, Seed: 5, Workers: 2}
	want, err := Analyze(repo, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Build the partial checkpoint: raw and normalize complete, the
	// reference pass done for even-indexed nodes only.
	dir := t.TempDir()
	fp := analysisFingerprint(repo, opts, measures.BuiltinMeasures())
	m, err := checkpoint.Open(dir, fp, false)
	if err != nil {
		t.Fatal(err)
	}
	rawPay := rawCkpt{Scores: make([]map[string]float64, len(want.Nodes))}
	refPay := refCkpt{Done: make([]bool, len(want.Nodes)), Rel: make([]map[string]float64, len(want.Nodes))}
	for i, ns := range want.Nodes {
		rawPay.Scores[i] = ns.Raw
		if i%2 == 0 {
			refPay.Done[i] = true
			refPay.Rel[i] = ns.RefRelative
		}
	}
	n := len(want.Nodes)
	if err := m.Update(ckptStageRaw, checkpoint.Progress{Done: n, Total: n, Complete: true}, rawPay); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(ckptStageNorm, checkpoint.Progress{Done: 1, Total: 1, Complete: true},
		normCkpt{Params: want.Normalizer.Params}); err != nil {
		t.Fatal(err)
	}
	if err := m.Update(ckptStageRef, checkpoint.Progress{Done: n / 2, Total: n}, refPay); err != nil {
		t.Fatal(err)
	}

	skippedBefore := obs.C("checkpoint.ref_nodes_skipped").Load()

	ropts := opts
	ropts.CheckpointDir = dir
	ropts.Resume = true
	got, err := Analyze(repo, ropts)
	if err != nil {
		t.Fatal(err)
	}
	assertAnalysesEqual(t, want, got)
	if skipped := obs.C("checkpoint.ref_nodes_skipped").Load() - skippedBefore; skipped == 0 {
		t.Fatal("resume recomputed every node; the checkpoint was ignored")
	}

	// After the resumed run the checkpoint must record a complete
	// reference stage.
	r, err := checkpoint.Open(dir, fp, true)
	if err != nil {
		t.Fatal(err)
	}
	raw, p, ok := r.Stage(ckptStageRef)
	if !ok || !p.Complete {
		t.Fatalf("reference stage after resume: %+v ok=%v, want complete", p, ok)
	}
	var rc refCkpt
	if err := json.Unmarshal(raw, &rc); err != nil {
		t.Fatal(err)
	}
	for i, d := range rc.Done {
		if !d {
			t.Fatalf("node %d not marked done in the completed checkpoint", i)
		}
	}
}

// TestCancelThenResumeMatchesUninterrupted interrupts a checkpointing run
// with a context deadline, then resumes it and compares every score map
// against an uninterrupted run.
func TestCancelThenResumeMatchesUninterrupted(t *testing.T) {
	repo := ckptRepo(t)
	opts := Options{RefLimit: 12, Seed: 5, Workers: 2, CheckpointEvery: 1}
	want, err := Analyze(repo, opts)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	opts.CheckpointDir = dir
	opts.Resume = true
	interrupted := false
	for _, deadline := range []time.Duration{3 * time.Millisecond, 10 * time.Millisecond, 40 * time.Millisecond} {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		_, err := AnalyzeContext(ctx, repo, opts)
		cancel()
		if err != nil {
			interrupted = true
		}
	}
	got, err := Analyze(repo, opts) // resume to completion
	if err != nil {
		t.Fatal(err)
	}
	assertAnalysesEqual(t, want, got)
	if !interrupted {
		t.Log("analysis finished inside every deadline; resume path not exercised this run")
	}
}

// TestResumeFingerprintMismatch pins the loud-failure contract: resuming
// against different options (here, a different subsampling seed) must
// error rather than silently blending two runs.
func TestResumeFingerprintMismatch(t *testing.T) {
	repo := ckptRepo(t)
	dir := t.TempDir()
	if _, err := Analyze(repo, Options{RefLimit: 12, Seed: 5, CheckpointDir: dir}); err != nil {
		t.Fatal(err)
	}
	_, err := Analyze(repo, Options{RefLimit: 12, Seed: 6, CheckpointDir: dir, Resume: true})
	if !errors.Is(err, checkpoint.ErrFingerprint) {
		t.Fatalf("resume with different seed: err = %v, want ErrFingerprint", err)
	}
	// Same options again resume cleanly.
	if _, err := Analyze(repo, Options{RefLimit: 12, Seed: 5, CheckpointDir: dir, Resume: true}); err != nil {
		t.Fatal(err)
	}
}
