// Package parallel is the shared fan-out substrate of the pipeline's hot
// paths (kNN scans, offline reference execution, distance-matrix fills):
// a bounded worker pool sized by runtime.NumCPU with deterministic,
// index-addressed fan-out/fan-in.
//
// Determinism contract: ForEachN runs fn(i) exactly once for every index in
// [0, n), and callers write results into position i of a pre-sized slice.
// Scheduling order varies between runs, but because every item's output
// slot is fixed by its index — never by completion order — the assembled
// result is bit-identical to a sequential loop, whatever the worker count.
// DESIGN.md ("Determinism under fan-out") records the argument.
//
// Workers(1) (or n <= the sequential threshold of the caller) degrades to
// a plain inline loop on the calling goroutine: no goroutines, no
// channels, no atomics — the sequential fallback behind the CLI's
// -parallel=1.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Telemetry handles: batches counts ForEachN invocations that actually
// fanned out, tasks counts the items they processed, and inline counts
// invocations served by the sequential fallback. The workers gauge holds
// the size of the most recent fan-out so pool utilization (tasks per
// batch per worker) can be read off a snapshot.
var (
	mBatches = obs.C("parallel.batches")
	mTasks   = obs.C("parallel.tasks")
	mInline  = obs.C("parallel.inline")
	gWorkers = obs.G("parallel.workers")
)

// Workers resolves a worker-count setting: values < 1 mean "one worker
// per available CPU" (runtime.NumCPU), 1 forces the sequential path, and
// anything else is taken as given.
func Workers(n int) int {
	if n < 1 {
		return runtime.NumCPU()
	}
	return n
}

// ForEachN runs fn(i) for every i in [0, n) across at most `workers`
// goroutines (resolved via Workers) and returns after all calls finish.
// Items are dispatched through a shared atomic cursor, so uneven per-item
// costs balance across workers; determinism comes from the index-addressed
// output convention, not from scheduling order.
//
// A non-nil ctx cancels the fan-out between items: workers stop claiming
// new indices once ctx is done and ForEachN returns ctx.Err(). Items
// already started still run to completion, so index i either ran fully or
// not at all — never halfway. A panic in fn is re-raised on the calling
// goroutine after the remaining workers drain.
//
// done is the number of items that ran to completion: n on success, the
// count of finished items when the fan-out stopped early on
// cancellation. Callers surfacing typed pipeline errors feed it into the
// error's Done field.
func ForEachN(ctx context.Context, n, workers int, fn func(i int)) (done int, err error) {
	if n <= 0 {
		return 0, nil
	}
	w := Workers(workers)
	if w > n {
		w = n
	}
	if w == 1 {
		mInline.Inc()
		mTasks.Add(uint64(n))
		for i := 0; i < n; i++ {
			if ctx != nil && ctx.Err() != nil {
				return i, ctx.Err()
			}
			fn(i)
		}
		return n, nil
	}
	mBatches.Inc()
	mTasks.Add(uint64(n))
	gWorkers.Set(int64(w))

	var (
		cursor    atomic.Int64
		completed atomic.Int64
		wg        sync.WaitGroup

		panicMu  sync.Mutex
		panicVal any
		panicked bool
	)
	cursor.Store(-1)
	worker := func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				panicMu.Lock()
				if !panicked {
					panicked, panicVal = true, r
				}
				panicMu.Unlock()
				// Stop the other workers from claiming further items.
				cursor.Store(int64(n))
			}
		}()
		for {
			if ctx != nil && ctx.Err() != nil {
				return
			}
			i := int(cursor.Add(1))
			if i >= n {
				return
			}
			fn(i)
			completed.Add(1)
		}
	}
	wg.Add(w)
	for g := 0; g < w; g++ {
		go worker()
	}
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
	if ctx != nil && ctx.Err() != nil {
		return int(completed.Load()), ctx.Err()
	}
	return n, nil
}

// Chunks splits [0, n) into at most `parts` contiguous half-open ranges of
// near-equal length, for workloads that prefer per-worker accumulators
// over per-item dispatch (e.g. the kNN scan's per-chunk top-k heaps). The
// chunk boundaries depend only on (n, parts), so chunk-level merges can be
// made deterministic by merging in chunk order.
func Chunks(n, parts int) [][2]int {
	if n <= 0 {
		return nil
	}
	if parts < 1 {
		parts = 1
	}
	if parts > n {
		parts = n
	}
	out := make([][2]int, 0, parts)
	size, rem := n/parts, n%parts
	lo := 0
	for c := 0; c < parts; c++ {
		hi := lo + size
		if c < rem {
			hi++
		}
		out = append(out, [2]int{lo, hi})
		lo = hi
	}
	return out
}
