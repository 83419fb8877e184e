package faults

import (
	"errors"
	"fmt"
	"testing"
	"time"
)

// withConfig arms the injector for one test and restores the previous
// state afterward.
func withConfig(t *testing.T, cfg Config) {
	t.Helper()
	prev, was := Active()
	Enable(cfg)
	t.Cleanup(func() {
		if was {
			Enable(prev)
		} else {
			Disable()
		}
	})
}

func TestDisabledProbeIsNil(t *testing.T) {
	prev, was := Active()
	Disable()
	defer func() {
		if was {
			Enable(prev)
		}
	}()
	for i := 0; i < 1000; i++ {
		if err := Inject(nil, SiteKNNScan, fmt.Sprint(i), KindAll); err != nil {
			t.Fatalf("disabled injector fired: %v", err)
		}
	}
}

// TestDeterministicDecisions is the core contract: whether a probe fires
// depends only on (seed, site, key), never on call order.
func TestDeterministicDecisions(t *testing.T) {
	withConfig(t, Config{Prob: 0.3, Seed: 42, Kinds: KindError})
	first := make(map[string]bool)
	for i := 0; i < 500; i++ {
		key := fmt.Sprint(i)
		first[key] = Inject(nil, SiteRefExecute, key, KindError) != nil
	}
	// Replay in reverse order: identical outcomes.
	for i := 499; i >= 0; i-- {
		key := fmt.Sprint(i)
		got := Inject(nil, SiteRefExecute, key, KindError) != nil
		if got != first[key] {
			t.Fatalf("decision for key %q changed across calls: %v then %v", key, first[key], got)
		}
	}
}

func TestInjectionRateRoughlyMatchesProb(t *testing.T) {
	withConfig(t, Config{Prob: 0.2, Seed: 7, Kinds: KindError})
	fired := 0
	const n = 5000
	for i := 0; i < n; i++ {
		if Inject(nil, SiteEvalLOOCV, fmt.Sprint(i), KindError) != nil {
			fired++
		}
	}
	rate := float64(fired) / n
	if rate < 0.15 || rate > 0.25 {
		t.Fatalf("injection rate %.3f far from configured 0.2", rate)
	}
}

func TestSeedChangesDecisions(t *testing.T) {
	decide := func(seed uint64) []bool {
		withConfig(t, Config{Prob: 0.3, Seed: seed, Kinds: KindError})
		out := make([]bool, 200)
		for i := range out {
			out[i] = Inject(nil, SiteKNNScan, fmt.Sprint(i), KindError) != nil
		}
		return out
	}
	a, b := decide(1), decide(2)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical decision vectors")
	}
}

func TestSiteFiltering(t *testing.T) {
	withConfig(t, Config{Prob: 1, Seed: 3, Kinds: KindError, Sites: []string{"offline"}})
	if Inject(nil, SiteOfflineRawScore, "k", KindError) == nil {
		t.Error("armed site did not fire at p=1")
	}
	if err := Inject(nil, SiteKNNScan, "k", KindError); err != nil {
		t.Errorf("unarmed site fired: %v", err)
	}
}

func TestAllowedKindsIntersection(t *testing.T) {
	withConfig(t, Config{Prob: 1, Seed: 3, Kinds: KindPanic})
	// Probe tolerates only errors; config injects only panics — nothing
	// can fire.
	if err := Inject(nil, SiteKNNScan, "k", KindError); err != nil {
		t.Errorf("disjoint kinds fired: %v", err)
	}
	// Probe tolerates panics: must panic with *Fault.
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected injected panic")
		}
		if f, ok := r.(*Fault); !ok || f.Kind != KindPanic {
			t.Fatalf("panic value = %#v, want *Fault{Kind: KindPanic}", r)
		}
	}()
	_ = Inject(nil, SiteKNNScan, "k", KindPanic)
}

func TestIsInjected(t *testing.T) {
	f := &Fault{Site: "s", Key: "k", Kind: KindError}
	if !IsInjected(f) {
		t.Error("IsInjected(fault) = false")
	}
	if !IsInjected(fmt.Errorf("wrap: %w", f)) {
		t.Error("IsInjected(wrapped fault) = false")
	}
	if IsInjected(errors.New("plain")) {
		t.Error("IsInjected(plain error) = true")
	}
	if IsInjected(nil) {
		t.Error("IsInjected(nil) = true")
	}
}

func TestParseSpec(t *testing.T) {
	cfg, err := ParseSpec("p=0.05,seed=7,kinds=error|latency|panic,sites=offline;knn,maxlat=1ms")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Prob != 0.05 || cfg.Seed != 7 || cfg.Kinds != KindAll ||
		len(cfg.Sites) != 2 || cfg.MaxLatency != time.Millisecond {
		t.Fatalf("unexpected config: %+v", cfg)
	}
	if _, err := ParseSpec("p=2"); err == nil {
		t.Error("out-of-range probability accepted")
	}
	if _, err := ParseSpec("bogus"); err == nil {
		t.Error("malformed field accepted")
	}
	if _, err := ParseSpec("kinds=meteor"); err == nil {
		t.Error("unknown kind accepted")
	}
	if cfg, err := ParseSpec(""); err != nil || cfg.Prob != 0 {
		t.Errorf("empty spec: cfg=%+v err=%v, want zero config", cfg, err)
	}
}

func TestEnableFromEnv(t *testing.T) {
	prev, was := Active()
	defer func() {
		if was {
			Enable(prev)
		} else {
			Disable()
		}
	}()
	t.Setenv(EnvVar, "p=0.25,seed=9")
	on, err := EnableFromEnv()
	if err != nil || !on {
		t.Fatalf("EnableFromEnv: on=%v err=%v", on, err)
	}
	cfg, ok := Active()
	if !ok || cfg.Prob != 0.25 || cfg.Seed != 9 {
		t.Fatalf("active config = %+v, %v", cfg, ok)
	}
	t.Setenv(EnvVar, "p=oops")
	if _, err := EnableFromEnv(); err == nil {
		t.Error("malformed env spec accepted")
	}
}

func TestLatencyKindSleepsAndSucceeds(t *testing.T) {
	withConfig(t, Config{Prob: 1, Seed: 5, Kinds: KindLatency, MaxLatency: 100 * time.Microsecond})
	for i := 0; i < 50; i++ {
		if err := Inject(nil, SiteKNNScan, fmt.Sprint(i), KindAll); err != nil {
			t.Fatalf("latency-only config returned error: %v", err)
		}
	}
}
