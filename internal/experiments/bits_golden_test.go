package experiments

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"repro/internal/engine"
	"repro/internal/measures"
	"repro/internal/netlog"
	"repro/internal/offline"
	"repro/internal/simulate"
)

// bitsHash feeds float bits, integers and strings into one digest.
type bitsHash struct{ h hash.Hash }

func (b bitsHash) u64(v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	b.h.Write(buf[:])
}

func (b bitsHash) f64(v float64) { b.u64(math.Float64bits(v)) }

func (b bitsHash) str(s string) {
	b.u64(uint64(len(s)))
	b.h.Write([]byte(s))
}

func (b bitsHash) sum() string { return fmt.Sprintf("%x", b.h.Sum(nil)) }

// TestMeasureBitsGolden pins the float bits of the offline scoring, which
// the quick goldens print rounded. On a small simulated log it scores
// every session display, and every display one EnumerateActions step
// (aggregates and top-k included) below each node's parent, with the
// eight built-in measures; it hashes those scores, every display's
// profile (distinct counts, numeric moments and TopFreq histograms), and
// the Raw, RefRelative and NormRelative maps of a full analysis.
// testdata/measure_bits.golden holds the digests. Regenerate it with
//
//	go test ./internal/experiments -run MeasureBitsGolden -update
//
// only when a change is meant to move a score.
func TestMeasureBitsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("scores every display of a simulated log")
	}
	if runtime.GOARCH != "amd64" {
		t.Skip("measure_bits.golden holds amd64 float results")
	}
	repo, err := simulate.Generate(simulate.Config{
		Analysts:      4,
		Sessions:      16,
		Seed:          4242,
		DatasetConfig: netlog.Config{Rows: 300},
	})
	if err != nil {
		t.Fatal(err)
	}
	msrs := measures.BuiltinMeasures()
	scores := bitsHash{sha256.New()}
	profiles := bitsHash{sha256.New()}
	var sessionDisplays, enumerated, aggregated, topk int
	score := func(a *engine.Action, d, parent, root *engine.Display) {
		ctx := &measures.Context{Action: a, Display: d, Parent: parent, Root: root}
		for _, m := range msrs {
			scores.f64(m.Score(ctx))
		}
		prof := d.GetProfile()
		profiles.u64(uint64(prof.Rows))
		for i, cp := range prof.Columns {
			profiles.str(cp.Name)
			profiles.u64(uint64(cp.Distinct))
			for _, f := range []float64{cp.Mean, cp.Std, cp.Min, cp.Max} {
				profiles.f64(f)
			}
			top := prof.TopFreq(i)
			profiles.u64(uint64(len(top.Keys)))
			for j, k := range top.Keys {
				profiles.str(k)
				profiles.f64(top.Weights[j])
			}
		}
	}
	opts := engine.EnumerateOptions{IncludeAggregates: true, IncludeTopK: true}
	enumeratedFrom := map[*engine.Display]bool{}
	for _, s := range repo.Sessions() {
		root := s.Root().Display
		for _, n := range s.Nodes() {
			sessionDisplays++
			if n.IsRoot() {
				score(nil, n.Display, nil, root)
				continue
			}
			parent := n.Parent.Display
			score(n.Action, n.Display, parent, root)
			if enumeratedFrom[parent] {
				continue
			}
			enumeratedFrom[parent] = true
			for _, a := range engine.EnumerateActions(parent, opts) {
				d, err := engine.Execute(parent, a)
				if err != nil {
					continue
				}
				enumerated++
				switch {
				case a.Type == engine.ActionTopK:
					topk++
				case d.Aggregated:
					aggregated++
				}
				score(a, d, parent, root)
			}
		}
	}
	if aggregated == 0 || topk == 0 {
		t.Fatalf("sweep scored %d aggregated and %d top-k displays; want both", aggregated, topk)
	}

	an, err := offline.Analyze(repo, offline.Options{RefLimit: 20, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	analysis := bitsHash{sha256.New()}
	for _, ns := range an.Nodes {
		for _, m := range []map[string]float64{ns.Raw, ns.RefRelative, ns.NormRelative} {
			names := make([]string, 0, len(m))
			for name := range m {
				names = append(names, name)
			}
			sort.Strings(names)
			analysis.u64(uint64(len(names)))
			for _, name := range names {
				analysis.str(name)
				analysis.f64(m[name])
			}
		}
	}

	got := fmt.Sprintf("session displays %d\nenumerated displays %d (%d aggregated, %d top-k)\n"+
		"scores %s\nprofiles %s\nanalysis nodes %d\nanalysis %s\n",
		sessionDisplays, enumerated, aggregated, topk,
		scores.sum(), profiles.sum(), len(an.Nodes), analysis.sum())

	path := filepath.Join("testdata", "measure_bits.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Fatalf("measure bits differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
