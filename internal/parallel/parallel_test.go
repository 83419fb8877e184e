package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkers(t *testing.T) {
	if got := Workers(0); got != runtime.NumCPU() {
		t.Errorf("Workers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(-3); got != runtime.NumCPU() {
		t.Errorf("Workers(-3) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	for _, n := range []int{1, 2, 7, 64} {
		if got := Workers(n); got != n {
			t.Errorf("Workers(%d) = %d", n, got)
		}
	}
}

// TestForEachCoversEveryIndexOnce is the determinism foundation: every
// index runs exactly once regardless of worker count.
func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8, 100} {
		const n = 1000
		counts := make([]atomic.Int32, n)
		if _, err := ForEachN(context.Background(), n, workers, func(i int) {
			counts[i].Add(1)
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

// TestForEachIndexAddressedDeterminism checks the output convention: a
// slice filled by index is identical across worker counts.
func TestForEachIndexAddressedDeterminism(t *testing.T) {
	const n = 513
	want := make([]int, n)
	if _, err := ForEachN(nil, n, 1, func(i int) { want[i] = i*i + 7 }); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 16} {
		got := make([]int, n)
		if _, err := ForEachN(nil, n, workers, func(i int) { got[i] = i*i + 7 }); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: got[%d]=%d want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if _, err := ForEachN(context.Background(), 0, 4, func(int) { t.Error("called") }); err != nil {
		t.Fatal(err)
	}
	if _, err := ForEachN(context.Background(), -5, 4, func(int) { t.Error("called") }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachCancellation(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		_, err := ForEachN(ctx, 100000, workers, func(i int) {
			if ran.Add(1) == 10 {
				cancel()
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if n := ran.Load(); n >= 100000 {
			t.Errorf("workers=%d: cancellation did not stop the fan-out (%d items ran)", workers, n)
		}
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Errorf("workers=%d: recovered %v, want boom", workers, r)
				}
			}()
			_, _ = ForEachN(nil, 100, workers, func(i int) {
				if i == 13 {
					panic("boom")
				}
			})
		}()
	}
}

func TestChunks(t *testing.T) {
	for _, tc := range []struct{ n, parts int }{
		{0, 4}, {1, 4}, {4, 4}, {5, 4}, {100, 7}, {3, 1}, {10, 100},
	} {
		chunks := Chunks(tc.n, tc.parts)
		covered := 0
		prev := 0
		for _, c := range chunks {
			if c[0] != prev {
				t.Fatalf("Chunks(%d,%d): gap at %v", tc.n, tc.parts, c)
			}
			if c[1] <= c[0] {
				t.Fatalf("Chunks(%d,%d): empty chunk %v", tc.n, tc.parts, c)
			}
			covered += c[1] - c[0]
			prev = c[1]
		}
		if covered != max(tc.n, 0) {
			t.Fatalf("Chunks(%d,%d) covers %d items", tc.n, tc.parts, covered)
		}
		if tc.n > 0 && len(chunks) > tc.parts {
			t.Fatalf("Chunks(%d,%d) produced %d chunks", tc.n, tc.parts, len(chunks))
		}
	}
}

// TestForEachStress hammers the pool under -race: concurrent fan-outs over
// shared per-index slots.
func TestForEachStress(t *testing.T) {
	const rounds = 20
	const n = 2000
	out := make([]int64, n)
	for r := 0; r < rounds; r++ {
		if _, err := ForEachN(context.Background(), n, 8, func(i int) {
			out[i]++
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i, v := range out {
		if v != rounds {
			t.Fatalf("slot %d = %d, want %d", i, v, rounds)
		}
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
