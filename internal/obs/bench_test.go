package obs

import (
	"testing"
	"time"
)

// BenchmarkDisabledTimingProbe is the disabled fine-latency probe: the
// clock reads are skipped entirely, leaving one atomic load.
func BenchmarkDisabledTimingProbe(b *testing.B) {
	c := New()
	h := c.Histogram("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if Timing() {
			t0 := time.Now()
			h.ObserveSince(t0)
		}
	}
}

// BenchmarkEnabledCounter measures a live counter increment (one
// atomic add); must report 0 B/op.
func BenchmarkEnabledCounter(b *testing.B) {
	c := New()
	ctr := c.Counter("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctr.Inc()
	}
	if ctr.Load() == 0 {
		b.Fatal("counter not recorded")
	}
}

// BenchmarkEnabledHistogram measures a live histogram observation
// (three atomic adds); must report 0 B/op.
func BenchmarkEnabledHistogram(b *testing.B) {
	c := New()
	h := c.Histogram("bench")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i))
	}
}

// BenchmarkEnabledCounterParallel shows contention behavior of the
// lock-free counter across GOMAXPROCS goroutines.
func BenchmarkEnabledCounterParallel(b *testing.B) {
	c := New()
	ctr := c.Counter("bench")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			ctr.Inc()
		}
	})
}
