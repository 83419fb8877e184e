package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/atomicio"
	"repro/internal/loadtest"
	"repro/internal/snapshot"
)

// cmdLoadtest drives a prediction server — a live one via -addr, or a
// snapshot served in-process via -model — at a configured QPS for a
// fixed duration, and writes the LOAD_<date>.json artifact. The command
// exits non-zero when the run violates its SLOs (-slo-p99, -slo-errors,
// -slo-shed, -slo-minqps), so CI can gate on serving performance.
func cmdLoadtest(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("loadtest", flag.ExitOnError)
	addr := fs.String("addr", "", "target server base URL(s), comma-separated; several targets round-robin the offered load (e.g. a ring's replicas or routers)")
	model := fs.String("model", "", "predictor snapshot to serve in-process instead of targeting -addr")
	ctxPath := fs.String("contexts", "", "wire-context JSON array (written by idarepro train -contexts); bodies are round-robined")
	qps := fs.Float64("qps", 200, "offered request rate (open-loop: arrivals are scheduled, not paced by responses)")
	conc := fs.Int("c", 0, "concurrent in-flight requests (0 = one per CPU)")
	duration := fs.Duration("duration", 10*time.Second, "arrival-schedule window")
	reqTimeout := fs.Duration("reqtimeout", 5*time.Second, "per-request timeout")
	deadline := fs.Duration("deadline", 0, "stamp each request with this X-Deadline-Ms budget so deadline-aware servers fast-fail doomed work (0 = off)")
	sloP99 := fs.Duration("slo-p99", 0, "fail the run when p99 latency exceeds this (0 = off)")
	sloErrors := fs.Float64("slo-errors", 0, "fail the run when the error rate exceeds this fraction (negative = off)")
	sloShed := fs.Float64("slo-shed", -1, "fail the run when the 503-shed rate exceeds this fraction (negative = off)")
	sloTimeouts := fs.Float64("slo-timeouts", -1, "fail the run when the timeout rate (504s + transport timeouts) exceeds this fraction (negative = off)")
	sloMinQPS := fs.Float64("slo-minqps", 0, "fail the run when achieved throughput falls below this (0 = off)")
	out := fs.String("out", "", "artifact path (default LOAD_<date>.json; \"-\" to skip the file)")
	asJSON := fs.Bool("json", false, "print the result as JSON on stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ctxPath == "" {
		return fmt.Errorf("loadtest: -contexts FILE is required")
	}
	if (*addr == "") == (*model == "") {
		return fmt.Errorf("loadtest: exactly one of -addr or -model is required")
	}
	blob, err := os.ReadFile(*ctxPath)
	if err != nil {
		return err
	}
	var wire []*snapshot.WireContext
	if err := json.Unmarshal(blob, &wire); err != nil {
		return fmt.Errorf("loadtest: parse %s: %w", *ctxPath, err)
	}
	if len(wire) == 0 {
		return fmt.Errorf("loadtest: %s holds no contexts", *ctxPath)
	}
	bodies := make([][]byte, len(wire))
	for i, wc := range wire {
		b, err := json.Marshal(struct {
			Context *snapshot.WireContext `json:"context"`
		}{wc})
		if err != nil {
			return fmt.Errorf("loadtest: encode context %d: %w", i, err)
		}
		bodies[i] = b
	}

	var targets []string
	if *addr != "" {
		for _, u := range strings.Split(*addr, ",") {
			if u = strings.TrimSpace(u); u != "" {
				targets = append(targets, u)
			}
		}
		if len(targets) == 0 {
			return fmt.Errorf("loadtest: -addr lists no targets")
		}
	}
	opts := loadtest.Options{
		BaseURLs:       targets,
		Bodies:         bodies,
		QPS:            *qps,
		Concurrency:    *conc,
		Duration:       *duration,
		RequestTimeout: *reqTimeout,
		Deadline:       *deadline,
		SLO: loadtest.SLO{
			MaxP99:         *sloP99,
			MaxErrorRate:   *sloErrors,
			MaxShedRate:    *sloShed,
			MaxTimeoutRate: *sloTimeouts,
			MinQPS:         *sloMinQPS,
		},
	}
	if *model != "" {
		pred, err := repro.LoadPredictor(*model)
		if err != nil {
			return err
		}
		pred.SetWorkers(workerCount)
		opts.Handler = pred.Handler(repro.ServeOptions{})
		fmt.Fprintf(os.Stderr, "loadtest: serving %s in-process (%d samples)\n", *model, pred.TrainingSize())
	}

	res, err := loadtest.Run(ctx, opts)
	if err != nil {
		return err
	}

	resBlob, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	resBlob = append(resBlob, '\n')
	if *asJSON {
		os.Stdout.Write(resBlob)
	} else {
		fmt.Printf("loadtest: %d requests in %.1fs (offered %.0f qps, achieved %.1f qps, mode %s)\n",
			res.Requests, res.ElapsedSec, res.TargetQPS, res.AchievedQPS, res.Mode)
		fmt.Printf("  outcomes: %d ok, %d abstain, %d degraded, %d shed, %d timeouts, %d errors\n",
			res.OK, res.Abstain, res.Degraded, res.Shed, res.Timeouts, res.Errors)
		fmt.Printf("  latency: p50 %v  p90 %v  p99 %v  p999 %v  max %v\n",
			time.Duration(res.Latency.P50NS), time.Duration(res.Latency.P90NS),
			time.Duration(res.Latency.P99NS), time.Duration(res.Latency.P999NS),
			time.Duration(res.Latency.MaxNS))
	}
	if *out != "-" {
		path := *out
		if path == "" {
			path = "LOAD_" + res.Date + ".json"
		}
		if err := atomicio.WriteFile(path, func(w io.Writer) error {
			_, werr := w.Write(resBlob)
			return werr
		}); err != nil {
			return err
		}
		fmt.Fprintln(os.Stderr, "wrote", path)
	}
	if len(res.Violations) > 0 {
		for _, v := range res.Violations {
			fmt.Fprintln(os.Stderr, "loadtest: SLO violation:", v)
		}
		return fmt.Errorf("loadtest: %d SLO violation(s)", len(res.Violations))
	}
	return nil
}
