package faults

import (
	"context"

	"repro/internal/pipeline"
)

// guardTries is how many times Guard tries one batch item. Injected
// faults re-roll per try (see Key), so with p=0.05 an item exhausts its
// tries with probability ~1e-4 — rare enough to exercise the next
// degradation rung without starving it.
const guardTries = 3

// Guard runs one batch item behind site, the one guard of the batch
// paths (offline scoring, fits and reference executions, the kNN scan,
// eval's pairwise and LOOCV items, checkpoint writes). Each of its
// guardTries tries, immediate and back to back, probes site under
// Key(base, try) and then runs fn; a panic in either is recovered into a
// pipeline.Recovered error tagged with site. Injected faults, returned or
// panicked, retry under the next key (counted in faults.retries); fn's
// own errors and panics return at once. When every try fails the last
// error returns (counted in faults.retry_exhausted), and a canceled ctx
// returns its error before the next try starts (a nil ctx never cancels).
// fn may run more than once, so it must overwrite, not accumulate, what
// it produces.
func Guard(ctx context.Context, site, base string, fn func() error) error {
	var err error
	for try := 0; try < guardTries; try++ {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		if try > 0 {
			mRetries.Inc()
		}
		if err = guardTry(ctx, site, Key(base, try), fn); !IsInjected(err) {
			return err
		}
	}
	mRetryExhausted.Inc()
	return err
}

// guardTry is one of Guard's tries: the probe, then fn, with panics
// recovered into an error tagged with site.
func guardTry(ctx context.Context, site, key string, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = pipeline.Recovered(site, r)
		}
	}()
	if err := Inject(ctx, site, key, KindAll); err != nil {
		return err
	}
	return fn()
}

// Probe is a single-try probe for sites that degrade at once instead of
// retrying: an injected error returns as is, an injected panic as a
// pipeline.Recovered error tagged with site, so a probe on a request path
// or a background loop never takes the process down. An injected sleep
// ends with ctx, as in Inject.
func Probe(ctx context.Context, site, key string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = pipeline.Recovered(site, r)
		}
	}()
	return Inject(ctx, site, key, KindAll)
}
