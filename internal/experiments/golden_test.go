package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/netlog"
	"repro/internal/simulate"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// bracketedDuration matches the wall-clock suffixes Setup prints, such as
// "[2.562s]" or "[1m3.2s]".
var bracketedDuration = regexp.MustCompile(`\[[0-9][0-9.hmsµun]*\]`)

// TestQuickGolden pins the paper-level numbers: it runs the pipeline with
// the `experiments -quick` settings and compares every report except the
// timing-only Table 3, durations blanked, byte for byte with
// testdata/quick.golden. Regenerate the goldens with
//
//	go test ./internal/experiments -run QuickGolden -update
//
// only when a change is meant to move the paper's numbers.
func TestQuickGolden(t *testing.T) {
	checkQuickGolden(t, "quick.golden")
}

// TestQuickFaultsGolden pins the degradation ladder: the same run with
// the injector armed by the spec prob=0.3,seed=5,kinds=error|panic (as
// IDAREPRO_FAULTS would arm it), compared with
// testdata/quick_faults.golden. At this rate three tries no longer
// absorb every fault: items exhaust their retries and take lower rungs
// of the ladder, so the reports differ from the fault-free golden, and a
// change to the retry budget or to any rung moves them. The test
// restores the injector it found.
func TestQuickFaultsGolden(t *testing.T) {
	cfg, err := faults.ParseSpec("prob=0.3,seed=5,kinds=error|panic")
	if err != nil {
		t.Fatal(err)
	}
	if prev, armed := faults.Active(); armed {
		t.Cleanup(func() { faults.Enable(prev) })
	} else {
		t.Cleanup(faults.Disable)
	}
	faults.Enable(cfg)
	checkQuickGolden(t, "quick_faults.golden")
}

// checkQuickGolden runs the quick pipeline and compares its reports with
// testdata/name, or rewrites that file under -update.
func checkQuickGolden(t *testing.T, name string) {
	t.Helper()
	if testing.Short() {
		t.Skip("runs the whole quick pipeline")
	}
	if runtime.GOARCH != "amd64" {
		// The file was recorded on amd64. Other ports may fuse a
		// multiply and an add into one rounding, which the Go spec
		// allows, so their float bits need not match it.
		t.Skip(name + " holds amd64 float results")
	}
	// The cmd/experiments -quick configuration.
	cfg := simulate.Config{
		Analysts:      10,
		Sessions:      80,
		Seed:          20190326,
		DatasetConfig: netlog.Config{Rows: 1200},
	}
	var buf bytes.Buffer
	r, err := Setup(&buf, cfg, 30, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Names {
		if name == "table3" {
			continue
		}
		if err := r.Run(name); err != nil {
			t.Fatal(err)
		}
	}
	got := bracketedDuration.ReplaceAll(buf.Bytes(), []byte("[-]"))

	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("quick pipeline output differs from %s at line %d:\n got: %q\nwant: %q", path, i+1, g, w)
		}
	}
}
