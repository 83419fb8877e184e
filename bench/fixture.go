package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/netlog"
	"repro/internal/session"
	"repro/internal/simulate"
)

// fixture is one simulated session log the workloads read: the four
// network-log datasets plus the analysts' sessions over them.
type fixture struct {
	name string
	cfg  simulate.Config
}

// The three fixtures. Their simulator seed is fixed, not taken from
// -seed: generating a paper-scale log takes most of a minute, far more
// than a run may spend, so each log is generated once per version of the
// program and cached (see ensure). The run seed varies what is drawn from
// the log.
var (
	// offlineFixture is the `idarepro bench` fixture: 12 analysts, 80
	// sessions, 364 actions over 1000-row datasets.
	offlineFixture = fixture{"offline", simulate.Config{
		Analysts: 12, Sessions: 80, MeanActions: 5.0, Seed: 271828,
		DatasetConfig: netlog.Config{Rows: 1000},
	}}
	// paperFixture is the simulator's paper-scale default: 454 sessions,
	// 122/454 of them successful.
	paperFixture = fixture{"paper", simulate.Config{Seed: 271828}}
	// largeFixture makes 80% of the sessions successful, which roughly
	// quadruples the training set drawn from the same session count.
	largeFixture = fixture{"large", simulate.Config{Seed: 271828, SuccessRate: 0.8}}
)

// ensure returns the directory holding the fixture's datasets and session
// log, generating them on first use. The directory is keyed by the
// program's sources under o.root and the simulator configuration, so a
// changed program regenerates its inputs and a cached log always matches
// the code reading it. Generation is never part of a measurement.
func (f fixture) ensure(o options) (string, error) {
	key, err := sourceKey(o.root, fmt.Sprintf("%+v", f.cfg))
	if err != nil {
		return "", err
	}
	cacheRoot := o.cache
	dir := filepath.Join(cacheRoot, f.name+"-"+key)
	if _, err := os.Stat(filepath.Join(dir, "sessions.json")); err == nil {
		return dir, nil
	}
	if err := os.MkdirAll(cacheRoot, 0o755); err != nil {
		return "", err
	}
	tmp, err := os.MkdirTemp(cacheRoot, f.name+".tmp-")
	if err != nil {
		return "", err
	}
	defer os.RemoveAll(tmp)
	t0 := time.Now()
	repo, err := simulate.Generate(f.cfg)
	if err != nil {
		return "", fmt.Errorf("generate %s fixture: %w", f.name, err)
	}
	for _, name := range repo.DatasetNames() {
		if err := dataset.SaveCSV(filepath.Join(tmp, name+".csv"), repo.RootDisplay(name).Table); err != nil {
			return "", err
		}
	}
	if err := session.SaveLog(filepath.Join(tmp, "sessions.json"), repo.Sessions()); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, dir); err != nil {
		if _, statErr := os.Stat(filepath.Join(dir, "sessions.json")); statErr == nil {
			return dir, nil // another run generated it meanwhile
		}
		return "", err
	}
	fmt.Fprintf(os.Stderr, "bench: generated %s fixture (%d sessions) in %.1fs\n",
		f.name, len(repo.Sessions()), time.Since(t0).Seconds())
	return dir, nil
}

// load reads the fixture into a fresh repository: the datasets from CSV,
// then every session replayed against them. Each call builds new
// displays, so nothing computed on an earlier repository carries over.
func load(dir string) (*repro.Repository, error) {
	repo := repro.NewRepository()
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".csv" {
			continue
		}
		tbl, err := dataset.LoadCSV(filepath.Join(dir, e.Name()), "")
		if err != nil {
			return nil, err
		}
		repo.AddDataset(tbl)
	}
	lf, err := session.LoadLog(filepath.Join(dir, "sessions.json"))
	if err != nil {
		return nil, err
	}
	if err := repo.LoadLogFile(lf); err != nil {
		return nil, err
	}
	return repo, nil
}

// sourceKey hashes the program's Go sources and module file under root,
// leaving out the benchmark's own directory, together with extra.
func sourceKey(root, extra string) (string, error) {
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		return "", fmt.Errorf("program sources not found: %w", err)
	}
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join(root, "bench") || d.Name() == ".bench_build" || d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if filepath.Ext(path) != ".go" && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	io.WriteString(h, extra)
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}
