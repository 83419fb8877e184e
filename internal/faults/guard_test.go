package faults

import (
	"context"
	"errors"
	"strconv"
	"testing"

	"repro/internal/pipeline"
)

const guardSite = SiteEvalPairwise

// rerollBase returns a probe base whose first try at guardSite fires
// under cfg and whose second does not.
func rerollBase(t *testing.T, cfg Config) string {
	t.Helper()
	fires := func(key string) bool { return fraction(hash64(cfg.Seed, guardSite, key)) < cfg.Prob }
	for i := 0; i < 1000; i++ {
		base := "item" + strconv.Itoa(i)
		if fires(Key(base, 0)) && !fires(Key(base, 1)) {
			return base
		}
	}
	t.Fatal("no base fires once and then clears")
	return ""
}

// TestGuardRetriesInjectedFaults: an injected error or panic on the first
// try is retried under the re-rolled key, and fn runs once, on the try
// whose probe clears.
func TestGuardRetriesInjectedFaults(t *testing.T) {
	for _, kind := range []Kind{KindError, KindPanic} {
		cfg := Config{Prob: 0.5, Seed: 3, Kinds: kind}
		withConfig(t, cfg)
		base := rerollBase(t, cfg)
		runs := 0
		err := Guard(context.Background(), guardSite, base, func() error { runs++; return nil })
		if err != nil || runs != 1 {
			t.Errorf("%s: err = %v after %d runs, want nil after 1", kind, err, runs)
		}
	}
}

// TestGuardReturnsLastErrorWhenEveryTryFails: with every probe firing,
// fn never runs and the error of the last of guardTries tries returns;
// faults.retries counts each re-try and faults.retry_exhausted the
// exhaustion.
func TestGuardReturnsLastErrorWhenEveryTryFails(t *testing.T) {
	withConfig(t, Config{Prob: 1, Seed: 1, Kinds: KindError})
	retries, exhausted := mRetries.Load(), mRetryExhausted.Load()
	runs := 0
	err := Guard(context.Background(), guardSite, "x", func() error { runs++; return nil })
	var f *Fault
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want an injected *Fault", err)
	}
	if want := Key("x", guardTries-1); f.Key != want || f.Site != guardSite {
		t.Errorf("last fault at %s key %q, want %s key %q", f.Site, f.Key, guardSite, want)
	}
	if runs != 0 {
		t.Errorf("fn ran %d times behind failing probes", runs)
	}
	if got := mRetries.Load() - retries; got != guardTries-1 {
		t.Errorf("faults.retries moved by %d, want %d", got, guardTries-1)
	}
	if got := mRetryExhausted.Load() - exhausted; got != 1 {
		t.Errorf("faults.retry_exhausted moved by %d, want 1", got)
	}
}

// TestGuardRecoversPanics: a panic in fn, real or injected, returns as a
// *pipeline.Error tagged with the site; a real one is not retried.
func TestGuardRecoversPanics(t *testing.T) {
	withConfig(t, Config{})
	runs := 0
	err := Guard(context.Background(), guardSite, "x", func() error { runs++; panic("boom") })
	var pe *pipeline.Error
	if !errors.As(err, &pe) || pe.Stage != guardSite || IsInjected(err) {
		t.Fatalf("real panic: err = %v, want a non-injected *pipeline.Error at %s", err, guardSite)
	}
	if runs != 1 {
		t.Errorf("real panic retried: fn ran %d times", runs)
	}

	withConfig(t, Config{Prob: 1, Seed: 1, Kinds: KindPanic})
	err = Guard(context.Background(), guardSite, "x", func() error { return nil })
	if !errors.As(err, &pe) || pe.Stage != guardSite || !IsInjected(err) {
		t.Fatalf("injected panic: err = %v, want an injected *pipeline.Error at %s", err, guardSite)
	}
}

// TestGuardRealErrorReturnsAfterOneTry: fn's own error is not a fault, so
// it returns as is after one try.
func TestGuardRealErrorReturnsAfterOneTry(t *testing.T) {
	withConfig(t, Config{})
	real := errors.New("disk full")
	runs := 0
	err := Guard(context.Background(), guardSite, "x", func() error { runs++; return real })
	if err != real || runs != 1 {
		t.Fatalf("err = %v after %d runs, want %v after 1", err, runs, real)
	}
}

// TestGuardCanceledContext: a canceled ctx returns its error before fn
// runs.
func TestGuardCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runs := 0
	err := Guard(ctx, guardSite, "x", func() error { runs++; return nil })
	if !errors.Is(err, context.Canceled) || runs != 0 {
		t.Fatalf("err = %v after %d runs, want context.Canceled before any", err, runs)
	}
}

// TestProbe: one try; an injected error returns as is, an injected panic
// as a *pipeline.Error tagged with the site, and a disarmed probe is nil.
func TestProbe(t *testing.T) {
	withConfig(t, Config{})
	if err := Probe(nil, guardSite, "x"); err != nil {
		t.Fatalf("disarmed probe: %v", err)
	}
	withConfig(t, Config{Prob: 1, Seed: 1, Kinds: KindError})
	var f *Fault
	if err := Probe(nil, guardSite, "x"); !errors.As(err, &f) || f.Key != "x" {
		t.Fatalf("injected error: err = %v, want a *Fault keyed x", err)
	}
	withConfig(t, Config{Prob: 1, Seed: 1, Kinds: KindPanic})
	var pe *pipeline.Error
	if err := Probe(nil, guardSite, "x"); !errors.As(err, &pe) || pe.Stage != guardSite || !IsInjected(err) {
		t.Fatalf("injected panic: err = %v, want an injected *pipeline.Error at %s", err, guardSite)
	}
}
