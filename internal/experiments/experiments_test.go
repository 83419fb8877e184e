package experiments

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"repro/internal/netlog"
	"repro/internal/simulate"
)

var (
	runnerOnce sync.Once
	runnerErr  error
	runnerBuf  *bytes.Buffer
	runnerVal  *Runner
)

// tinyRunner builds one shared quick-mode runner for all tests here.
func tinyRunner(t *testing.T) (*Runner, *bytes.Buffer) {
	t.Helper()
	runnerOnce.Do(func() {
		runnerBuf = &bytes.Buffer{}
		cfg := simulate.Config{
			Analysts:      8,
			Sessions:      56,
			SuccessRate:   0.5,
			Seed:          33,
			DatasetConfig: netlog.Config{Rows: 1000},
		}
		runnerVal, runnerErr = Setup(runnerBuf, cfg, 25, true)
	})
	if runnerErr != nil {
		t.Fatal(runnerErr)
	}
	return runnerVal, runnerBuf
}

func TestSetupPrintsBenchmarkSummary(t *testing.T) {
	_, buf := tinyRunner(t)
	out := buf.String()
	if !strings.Contains(out, "benchmark: 56 sessions") {
		t.Errorf("missing benchmark summary:\n%s", out)
	}
	if !strings.Contains(out, "offline analysis:") {
		t.Errorf("missing analysis summary:\n%s", out)
	}
}

func TestRunAllExperiments(t *testing.T) {
	r, buf := tinyRunner(t)
	if err := r.Run("all"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	wantSections := []string{
		"Table 2 —", "Figure 2 —", "Figure 3 —",
		"pairwise measure correlations", "churn within sessions",
		"agreement between the comparison methods",
		"Table 3 —", "Table 4 —", "Table 5 —", "Figure 4 —", "Figure 5 —",
	}
	for _, w := range wantSections {
		if !strings.Contains(out, w) {
			t.Errorf("report missing section %q", w)
		}
	}
	// Table 5 must list all four models for both methods.
	for _, model := range []string{"RANDOM", "BestSM", "I-SVM", "I-kNN"} {
		if strings.Count(out, model) < 2 {
			t.Errorf("model %s missing from Table 5", model)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	r, _ := tinyRunner(t)
	if err := r.Run("table99"); err == nil {
		t.Error("unknown experiment must fail")
	}
}

func TestConfigsQuickVsFull(t *testing.T) {
	r, _ := tinyRunner(t)
	if got := len(r.Configs()); got != 4 {
		t.Errorf("quick configs = %d, want 4", got)
	}
	r2 := NewRunner(r.Repo, r.Analysis, &bytes.Buffer{}, false, 1)
	if got := len(r2.Configs()); got != 16 {
		t.Errorf("full configs = %d, want 16", got)
	}
}

func TestEveryOther(t *testing.T) {
	got := everyOther([]float64{1, 2, 3, 4, 5})
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 5 {
		t.Errorf("everyOther = %v", got)
	}
	if everyOther(nil) != nil {
		t.Error("empty input")
	}
}
