package serve

import "testing"

func TestLimiterFixedIsOldSemaphore(t *testing.T) {
	l := newLimiter(2)
	if !l.tryAcquire() || !l.tryAcquire() {
		t.Fatal("fixed limiter refused within its cap")
	}
	if l.tryAcquire() {
		t.Fatal("fixed limiter admitted past its cap")
	}
	l.release()
	l.release()
	l.release() // an unmatched release must not underflow or block
	if in, cap := len(l), cap(l); in != 0 || cap != 2 {
		t.Fatalf("occupancy = (%d, %d), want (0, 2)", in, cap)
	}
	if !l.tryAcquire() {
		t.Fatal("fixed limiter refused after releases")
	}
	l.release()
}
