package faults

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"time"
)

// RetryPolicy bounds a retry-with-backoff loop around a transient-fault
// site. It is shared by the injector's in-pipeline retries (immediate,
// no sleep) and by internal/client's HTTP retries (exponential backoff
// with full jitter). The zero value retries nothing (one attempt, no
// sleep).
type RetryPolicy struct {
	// Attempts is the total number of tries (>= 1; 0 is treated as 1).
	Attempts int
	// Backoff is the sleep before the first retry; it doubles on each
	// subsequent retry. Zero retries immediately (the right setting for
	// CPU-bound batch work, where the "transient" faults are injected and
	// waiting on the wall clock would only slow the chaos suite down).
	Backoff time.Duration
	// MaxBackoff caps the doubled backoff. <=0 means uncapped.
	MaxBackoff time.Duration
	// Jitter draws each sleep uniformly from [0, backoff] (full jitter)
	// instead of sleeping the exact backoff, decorrelating retry storms
	// from many clients that failed at the same instant. A server-supplied
	// Retry-After hint (see RetryAfterHinter) is honored exactly, never
	// jittered below what the server asked for.
	Jitter bool
	// Retryable classifies errors worth another attempt. Nil means
	// IsInjected — the injector-retry default, where only deterministic
	// chaos faults are transient.
	Retryable func(error) bool
}

// RetryAfterHinter is implemented by errors carrying a server-specified
// minimum delay (an HTTP 503 Retry-After). Do sleeps at least that long
// before the next attempt, overriding the computed backoff.
type RetryAfterHinter interface {
	RetryAfterHint() (time.Duration, bool)
}

// DefaultRetry is the policy Guard runs every batch item under: three
// tries, immediate. Injected faults re-roll per attempt (see Key), so with
// p=0.05 the chance of exhausting the policy is ~1e-4 per item — rare
// enough to exercise the next degradation rung without starving it.
var DefaultRetry = RetryPolicy{Attempts: 3}

// jitterRand feeds full-jitter draws. Timing-only: it never influences a
// retry *decision*, so pipeline determinism is unaffected. Guarded by a
// mutex because policies are shared across request goroutines.
var (
	jitterMu   sync.Mutex
	jitterRand = rand.New(rand.NewSource(1)).Float64
)

// sleepCtx waits d or until ctx is canceled, whichever comes first,
// reporting whether the full sleep elapsed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return true
	}
	if ctx == nil {
		time.Sleep(d)
		return true
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// Do runs fn up to p.Attempts times, passing the attempt index (0-based)
// so fn can derive a fresh probe key per try. Only transient errors — per
// p.Retryable, defaulting to IsInjected — are retried; any other error
// returns immediately. The sleep between attempts respects context
// cancellation: a ctx canceled mid-backoff returns ctx.Err() without
// waiting out the timer. The last error is returned when every attempt
// fails.
func (p RetryPolicy) Do(ctx context.Context, fn func(attempt int) error) error {
	attempts := p.Attempts
	if attempts < 1 {
		attempts = 1
	}
	retryable := p.Retryable
	if retryable == nil {
		retryable = IsInjected
	}
	backoff := p.Backoff
	var err error
	for i := 0; i < attempts; i++ {
		if ctx != nil && ctx.Err() != nil {
			return ctx.Err()
		}
		if i > 0 {
			mRetries.Inc()
			sleep := backoff
			if p.Jitter && sleep > 0 {
				jitterMu.Lock()
				sleep = time.Duration(jitterRand() * float64(sleep))
				jitterMu.Unlock()
			}
			// A server that said "Retry-After: n" knows better than our
			// schedule: wait at least that long.
			var hinter RetryAfterHinter
			if errors.As(err, &hinter) {
				if hint, ok := hinter.RetryAfterHint(); ok && hint > sleep {
					sleep = hint
				}
			}
			if !sleepCtx(ctx, sleep) {
				return ctx.Err()
			}
			backoff *= 2
			if p.MaxBackoff > 0 && backoff > p.MaxBackoff {
				backoff = p.MaxBackoff
			}
		}
		if err = fn(i); err == nil {
			return nil
		}
		if !retryable(err) {
			return err
		}
	}
	mRetryExhausted.Inc()
	return err
}
