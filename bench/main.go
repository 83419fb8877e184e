// Command bench is the repository's performance ledger. It runs three
// workloads — the offline analysis, in-process prediction at 4.4x the
// paper's training set, and a replicated serving tier at paper scale —
// prints every end-to-end metric by name with its unit, checks that every
// answer is correct, and, traced, breaks each workload down by layer. Run
// it from the repository root:
//
//	bash bench/run.sh                                     # the ledger: every workload, 5 runs + 1 traced
//	bash bench/run.sh -out bench/results/new.json -compare bench/results/baseline.json
//	bash bench/run.sh -workload predict-large -seed 3 -seconds 18 -trace 0
//
// A single-workload run prints its report and, as its last line, one JSON
// object with the keys correct, attempted, failed and metrics. The ledger
// runs each workload in its own child process, so heap and GC state never
// leak from one run into the next, and writes one JSON artifact.
// See README.md for the workloads, the metrics and how to read them.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro"
)

// options configures one run of one workload.
type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	// root is the repository root, whose sources key the fixture cache;
	// cache holds the generated fixtures; scratch holds snapshot files.
	root, cache, scratch string
}

const (
	// setupReps is how many times a run repeats its set-up; setup_s is the
	// median.
	setupReps = 3
	// minRounds is the fewest rounds a run measures. A round sends every
	// request of the workload once; rounds repeat until the run's seconds
	// are spent, and each request's latency is its fastest round (see best).
	// heap_mb is read after the first round, so it never depends on how
	// many rounds a run's time allowed.
	minRounds = 3
)

type workload struct {
	name string
	run  func(options) (*result, error)
}

var workloads = []workload{
	{"offline-ref", func(o options) (*result, error) { return runOffline(o, offlineFixture) }},
	{"predict-large", func(o options) (*result, error) {
		return runPredict(o, largeFixture, largeConfig())
	}},
	{"tier-ring", func(o options) (*result, error) {
		return runTier(o, paperFixture, repro.DefaultPredictorConfig(repro.Normalized))
	}},
}

// largeConfig is the paper's default model with every labeled context of
// the large fixture admitted. θ_I stays finite because a snapshot cannot
// encode -Inf.
func largeConfig() repro.PredictorConfig {
	cfg := repro.DefaultPredictorConfig(repro.Normalized)
	cfg.ThetaI = -10
	return cfg
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "run this workload once (default: the ledger of every workload)")
	seed := fs.Uint64("seed", 271828, "run seed: the analysis seed (offline-ref) or the query order (the others)")
	seconds := fs.Float64("seconds", 18, "time a run spends in measured rounds, in seconds (at least 3 rounds)")
	trace := fs.Int("trace", 0, "with -workload: 1 adds a traced copy of the measured phases and reports per-layer metrics (the ledger always adds one traced run)")
	out := fs.String("out", "", "ledger: write the JSON artifact to this file")
	compare := fs.String("compare", "", "compare against this earlier artifact; exit 1 if any metric got worse")
	against := fs.String("against", "", "with -compare: judge this artifact instead of running the ledger")
	record := fs.String("record", "", "also write the run's full record, as JSON, to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds <= 0 || (*against != "" && *compare == "") {
		fs.Usage()
		return 2
	}
	o := options{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		root:    ".",
		cache:   filepath.Join(".bench_build", "fixtures"),
		scratch: filepath.Join(".bench_build", "tmp"),
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}

	if *against != "" {
		return compareFiles(*compare, *against, stdout, stderr)
	}
	if *name != "" && *out == "" && *compare == "" {
		return runOne(*name, o, *record, stdout, stderr)
	}
	var names []string
	for _, w := range workloads {
		if *name == "" || *name == w.name {
			names = append(names, w.name)
		}
	}
	if len(names) == 0 {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	return ledger(names, o, *out, *compare, stdout, stderr)
}

// runOne runs one workload in this process and prints its report.
func runOne(name string, o options, record string, stdout, stderr io.Writer) int {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	o.workload = name
	r, err := w.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	if r.Trace {
		for _, d := range perLayer {
			if _, ok := r.Layers[d.Name]; !ok {
				r.Layers[d.Name] = value{Unit: d.Unit}
			}
		}
	}
	if record != "" {
		if err := writeJSON(record, r); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := report(stdout, r); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

func writeJSON(path string, v any) error {
	blob, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(blob, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
