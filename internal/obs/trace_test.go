package obs

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestTraceRecordCopiesAnnotations(t *testing.T) {
	tr := NewTrace("req-1", "POST /v1/predict")
	tr.AddStage("serve.decode", 1500*time.Nanosecond)
	tr.AddStage("knn.predict", 2500*time.Nanosecond)
	tr.Rung("knn.fallback")
	tr.Rung("knn.fallback")
	tr.FaultSite("serve.predict")
	tr.AddCandidates(3)
	tr.AddDistanceEvals(42)
	tr.Finish(200)

	rec := tr.Record()
	if rec.ID != "req-1" || rec.Op != "POST /v1/predict" || rec.Status != 200 {
		t.Fatalf("record header = %+v", rec)
	}
	if len(rec.Stages) != 2 || rec.Stages[0].Name != "serve.decode" || rec.Stages[1].NS != 2500 {
		t.Fatalf("stages = %+v", rec.Stages)
	}
	if rec.Rungs["knn.fallback"] != 2 {
		t.Fatalf("rungs = %+v", rec.Rungs)
	}
	if len(rec.FaultSites) != 1 || rec.FaultSites[0] != "serve.predict" {
		t.Fatalf("fault sites = %+v", rec.FaultSites)
	}
	if rec.Candidates != 3 || rec.DistanceEvals != 42 {
		t.Fatalf("work counts = %+v", rec)
	}
	if rec.TotalNS == 0 {
		t.Fatal("TotalNS not recorded by Finish")
	}

	// The record is a copy: later mutation must not leak in.
	tr.Rung("late")
	if _, ok := rec.Rungs["late"]; ok {
		t.Fatal("record aliased the live trace")
	}
}

func TestTraceNilSafety(t *testing.T) {
	var tr *Trace
	tr.AddStage("x", time.Second)
	tr.Rung("x")
	tr.FaultSite("x")
	tr.AddCandidates(1)
	tr.AddDistanceEvals(1)
	tr.Finish(200)
	if tr.ID() != "" {
		t.Fatal("nil trace ID")
	}
	if rec := tr.Record(); rec.ID != "" {
		t.Fatal("nil trace record")
	}
	var ring *TraceRing
	ring.Push(NewTrace("a", "b"))
	if ring.Snapshot(0) != nil || ring.Cap() != 0 {
		t.Fatal("nil ring must be inert")
	}
}

func TestWithTraceRoundTrip(t *testing.T) {
	if TraceFrom(nil) != nil {
		t.Fatal("TraceFrom(nil) != nil")
	}
	if TraceFrom(context.Background()) != nil {
		t.Fatal("TraceFrom(plain ctx) != nil")
	}
	tr := NewTrace("id", "op")
	ctx := WithTrace(context.Background(), tr)
	if TraceFrom(ctx) != tr {
		t.Fatal("trace did not round-trip through ctx")
	}
	if TraceFrom(WithTrace(nil, tr)) != tr {
		t.Fatal("WithTrace(nil, …) must still carry the trace")
	}
}

func TestStartCtxAttachesSpanToTrace(t *testing.T) {
	c := New()
	st := c.NewStage("phase")
	tr := NewTrace("id", "op")
	ctx := WithTrace(context.Background(), tr)

	sp := st.StartCtx(ctx)
	time.Sleep(time.Millisecond)
	sp.End()

	rec := tr.Record()
	if len(rec.Stages) != 1 || rec.Stages[0].Name != "phase" {
		t.Fatalf("stages = %+v, want one 'phase' stage", rec.Stages)
	}
	if rec.Stages[0].NS == 0 {
		t.Fatal("span elapsed time not recorded onto the trace")
	}

	// Without a trace on ctx, StartCtx degrades to Start.
	sp = st.StartCtx(context.Background())
	sp.End()
	if got := tr.Record(); len(got.Stages) != 1 {
		t.Fatalf("plain ctx must not annotate the old trace: %+v", got.Stages)
	}
}

func TestTraceRingEvictsOldestNewestFirst(t *testing.T) {
	ring := NewTraceRing(4)
	for i := 0; i < 7; i++ {
		tr := NewTrace(fmt.Sprintf("req-%d", i), "op")
		tr.Finish(200)
		ring.Push(tr)
		time.Sleep(time.Millisecond) // distinct Start times order the snapshot
	}
	recs := ring.Snapshot(0)
	if len(recs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recs))
	}
	for i, want := range []string{"req-6", "req-5", "req-4", "req-3"} {
		if recs[i].ID != want {
			t.Fatalf("recs[%d] = %s, want %s (newest first)", i, recs[i].ID, want)
		}
	}
	if got := ring.Snapshot(2); len(got) != 2 || got[0].ID != "req-6" {
		t.Fatalf("limited snapshot = %+v", got)
	}
}

func TestTraceRingConcurrentPushSnapshot(t *testing.T) {
	ring := NewTraceRing(16)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr := NewTrace(fmt.Sprintf("g%d-%d", g, i), "op")
				tr.AddStage("s", time.Microsecond)
				tr.Finish(200)
				ring.Push(tr)
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		for _, rec := range ring.Snapshot(0) {
			if rec.ID == "" {
				t.Error("snapshot surfaced an empty record")
			}
		}
	}
	close(stop)
	wg.Wait()
}

func TestNewRequestIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 10000; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate request id %q", id)
		}
		seen[id] = true
	}
}
