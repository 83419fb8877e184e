package faults

import (
	"context"

	"repro/internal/pipeline"
)

// Guard runs one batch item behind site, the one guard of the batch
// paths (offline scoring, fits and reference executions, the kNN scan,
// eval's pairwise and LOOCV items, checkpoint writes). Each of
// DefaultRetry's tries probes site under Key(base, attempt) and then runs
// fn; a panic in either is recovered into a pipeline.Recovered error
// tagged with site. Injected faults, returned or panicked, retry under
// the next key; fn's own errors and panics return at once. When every try
// fails the last error returns, and a canceled ctx returns its error
// before the next try starts (a nil ctx never cancels). fn may run more
// than once, so it must overwrite, not accumulate, what it produces.
func Guard(ctx context.Context, site, base string, fn func() error) error {
	return DefaultRetry.Do(ctx, func(attempt int) (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = pipeline.Recovered(site, r)
			}
		}()
		if err := Inject(site, Key(base, attempt), KindAll); err != nil {
			return err
		}
		return fn()
	})
}

// Probe is a single-try probe for sites that degrade at once instead of
// retrying: an injected error returns as is, an injected panic as a
// pipeline.Recovered error tagged with site, so a probe on a request path
// or a background loop never takes the process down.
func Probe(site, key string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = pipeline.Recovered(site, r)
		}
	}()
	return Inject(site, key, KindAll)
}
