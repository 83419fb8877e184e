package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro"
	"repro/internal/atomicio"
	"repro/internal/obs"
	"repro/internal/offline"
	"repro/internal/serve"
	"repro/internal/session"
	"repro/internal/snapshot"
)

// cmdTrain runs the offline analysis, trains the I-kNN predictor, and
// saves it as a versioned snapshot another process can serve from.
func cmdTrain(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	dir := fs.String("dir", "data", "data directory")
	out := fs.String("o", "model.snap", "snapshot output path")
	methodName := fs.String("method", "norm", "comparison method: norm or ref")
	refLimit := fs.Int("reflimit", 120, "reference set cap for the offline pass (0 = full)")
	fallbackName := fs.String("fallback", "abstain", "abstention degradation policy: abstain, nearest or prior")
	ctxOut := fs.String("contexts", "", "also export up to -ctxlimit wire contexts (server request bodies) to this path")
	ctxLimit := fs.Int("ctxlimit", 64, "cap on exported wire contexts")
	ckptDir := fs.String("checkpoint", "", "persist crash-safe analysis/training progress under this directory")
	resume := fs.Bool("resume", false, "resume from a compatible checkpoint in -checkpoint DIR, skipping completed work")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *ckptDir == "" {
		return fmt.Errorf("train: -resume requires -checkpoint DIR")
	}
	method, err := offline.ParseMethod(*methodName)
	if err != nil {
		return err
	}
	fb, err := repro.ParseFallbackPolicy(*fallbackName)
	if err != nil {
		return err
	}
	repo, err := loadRepo(*dir)
	if err != nil {
		return err
	}
	fw := repro.NewFramework(repo)
	if err := fw.RunOfflineAnalysisContext(ctx, repro.AnalysisOptions{
		RefLimit:      *refLimit,
		SkipReference: method == repro.Normalized,
		Workers:       workerCount,
		CheckpointDir: *ckptDir,
		Resume:        *resume,
	}); err != nil {
		return err
	}
	if ck := fw.Analysis.Checkpoint; ck != nil && ck.Resumed() {
		fmt.Fprintf(os.Stderr, "train: resumed from checkpoint %s (completed stages skipped)\n", *ckptDir)
	}
	cfg := repro.DefaultPredictorConfig(method)
	cfg.Fallback = fb
	pred, err := fw.TrainPredictorContext(ctx, repro.DefaultMeasureSet(), method, cfg)
	if err != nil {
		return err
	}
	if err := pred.Save(*out); err != nil {
		return err
	}
	fmt.Printf("trained %s predictor on %d samples (n=%d k=%d θ_δ=%g θ_I=%g fallback=%s)\n",
		method, pred.TrainingSize(), cfg.N, cfg.K, cfg.ThetaDelta, cfg.ThetaI, fb)
	fmt.Println("wrote", *out)
	if *ctxOut != "" {
		n, err := exportContexts(*ctxOut, repo, cfg.N, *ctxLimit)
		if err != nil {
			return err
		}
		fmt.Printf("wrote %s (%d contexts)\n", *ctxOut, n)
	}
	return nil
}

// exportContexts writes up to limit n-contexts (one per session state, in
// repository order) as a JSON array of self-contained wire contexts — the
// exact value the server's batch endpoint accepts as "contexts".
func exportContexts(path string, repo *session.Repository, n, limit int) (int, error) {
	var wire []*snapshot.WireContext
	for _, s := range repo.Sessions() {
		for t := 0; t < s.Steps() && (limit < 1 || len(wire) < limit); t++ {
			st, err := s.StateAt(t)
			if err != nil {
				continue
			}
			wire = append(wire, repro.EncodeWireContext(session.Extract(st, n)))
		}
		if limit >= 1 && len(wire) >= limit {
			break
		}
	}
	err := atomicio.WriteFile(path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		return enc.Encode(wire)
	})
	if err != nil {
		return 0, err
	}
	return len(wire), nil
}

// cmdServe loads a predictor snapshot and serves predictions over HTTP
// until the process context is canceled (SIGINT or -timeout), then drains
// gracefully and exits 0. With -ring it joins a sharded tier: -node runs
// a replica serving its placed shards, -router runs the scatter-gather
// router (health checking, failover, self-healing snapshot repair).
func cmdServe(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	model := fs.String("model", "model.snap", "predictor snapshot path (written by idarepro train)")
	addr := fs.String("addr", ":8080", "listen address")
	maxInFlight := fs.Int("maxinflight", 0, "max concurrently served prediction requests (0 = one per CPU)")
	hedge := fs.Float64("hedge", 0, "router: after a per-shard p95 delay, hedge to the next replica, capped at this fraction of shard calls (0 = off)")
	maxBatch := fs.Int("maxbatch", 0, "max contexts per batch request (0 = 1024)")
	reload := fs.Bool("reload", false, "enable hot model reload: SIGHUP or POST /v1/admin/reload re-reads -model and swaps it in without dropping requests")
	ringPath := fs.String("ring", "", "ring spec (ring.json, written by idarepro ring); requires -node or -router")
	node := fs.String("node", "", "serve as this ring replica: load only the shards the spec places on the named node")
	router := fs.Bool("router", false, "serve as the ring's router: scatter queries to shard replicas, merge candidates, health-check and repair the tier")
	verbose := fs.Bool("v", false, "print the telemetry snapshot (request counters, latency) at exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *verbose {
		obs.SetMode(obs.ModeTiming)
		defer func() { fmt.Fprint(os.Stderr, "\n"+obs.Default.Snapshot().Table()) }()
	}
	if (*node != "" || *router) && *ringPath == "" {
		return fmt.Errorf("serve: -node and -router require -ring FILE")
	}
	if *node != "" && *router {
		return fmt.Errorf("serve: -node and -router are mutually exclusive")
	}
	if *router {
		spec, err := repro.LoadRingSpec(*ringPath)
		if err != nil {
			return err
		}
		rt, err := repro.NewRingRouter(*model, spec, repro.RingRouterOptions{
			MaxInFlight:   *maxInFlight,
			MaxBatch:      *maxBatch,
			HedgeFraction: *hedge,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "serve: router over %d shards x %d replicas (%d nodes) from %s\n",
			spec.Shards, spec.Replicas, len(spec.Nodes), *ringPath)
		fmt.Fprintf(os.Stderr, "serve: listening on %s (endpoints: /healthz /readyz /metrics /v1/model /v1/predict /v1/predict/batch /v1/ring /v1/admin/trace)\n", *addr)
		return rt.Run(ctx, *addr)
	}
	pred, err := repro.LoadPredictor(*model)
	if err != nil {
		return err
	}
	pred.SetWorkers(workerCount)
	cfg := pred.Config()
	fmt.Fprintf(os.Stderr, "serve: loaded %s model from %s (%d samples, n=%d k=%d θ_δ=%g fallback=%s)\n",
		pred.Method(), *model, pred.TrainingSize(), cfg.N, cfg.K, cfg.ThetaDelta, cfg.Fallback)
	opts := repro.ServeOptions{
		MaxInFlight: *maxInFlight,
		MaxBatch:    *maxBatch,
	}
	endpoints := "/healthz /readyz /metrics /v1/model /v1/predict /v1/predict/batch /v1/admin/trace"
	if *reload {
		opts.Reloader = repro.SnapshotReloader(*model)
		opts.ModelPath = *model
		endpoints += " /v1/admin/reload"
	}
	var srv *serve.Server
	if *node != "" {
		spec, err := repro.LoadRingSpec(*ringPath)
		if err != nil {
			return err
		}
		srv, err = pred.NewShardServer(spec, *node, opts)
		if err != nil {
			return err
		}
		endpoints += " /v1/knn/candidates"
		if *reload {
			// With reload enabled a replica also accepts the router's
			// self-healing snapshot pushes.
			endpoints += " /v1/admin/snapshot"
		}
		fmt.Fprintf(os.Stderr, "serve: ring replica %q serving shards %v of %d\n",
			*node, srv.Status().Shards, spec.Shards)
	} else {
		srv = pred.NewServer(opts)
	}
	if *reload {
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for {
				select {
				case <-ctx.Done():
					return
				case <-hup:
					if st, err := srv.Reload(); err != nil {
						fmt.Fprintln(os.Stderr, "serve: reload:", err)
					} else {
						fmt.Fprintf(os.Stderr, "serve: reloaded %s (generation %d)\n", *model, st.Generation)
					}
				}
			}
		}()
	}
	fmt.Fprintf(os.Stderr, "serve: listening on %s (endpoints: %s)\n", *addr, endpoints)
	return srv.Run(ctx, *addr)
}
