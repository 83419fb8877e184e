package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/distance"
	"repro/internal/knn"
	"repro/internal/offline"
	"repro/internal/session"
)

// labeledClassifier builds a one-sample classifier answering label for
// any nearby query.
func labeledClassifier(label string) *knn.Classifier {
	sample := &offline.Sample{Context: trainCtx("train", 1), Labels: []string{label}}
	return knn.New([]*offline.Sample{sample}, distance.NewMemoizedTreeEdit(nil), knn.Config{
		K: 1, ThetaDelta: 0.25, Workers: 1,
	})
}

func predictMeasure(t *testing.T, s *Server) string {
	t.Helper()
	rec := post(t, s.Handler(), "/v1/predict", wireBody(t, false, trainCtx("q", 1)))
	if rec.Code != http.StatusOK {
		t.Fatalf("predict: %d %s", rec.Code, rec.Body)
	}
	var pr predictResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil {
		t.Fatal(err)
	}
	return pr.Measure
}

func TestReloadSwapsModelAtomically(t *testing.T) {
	s := tinyServer(t, Options{
		Reloader: func() (*knn.Classifier, ModelInfo, error) {
			return labeledClassifier("schutz"), ModelInfo{Method: "normalized", N: 2, TrainingSize: 1}, nil
		},
	})
	if got := predictMeasure(t, s); got != "variance" {
		t.Fatalf("before reload: %q, want variance", got)
	}
	if st := s.Status(); st.Generation != 1 {
		t.Fatalf("initial generation = %d, want 1", st.Generation)
	}

	rec := post(t, s.Handler(), "/v1/admin/reload", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("reload: %d %s", rec.Code, rec.Body)
	}
	var st ModelStatus
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Generation != 2 || st.LoadedAt.IsZero() {
		t.Fatalf("reload status = %+v, want generation 2 with load time", st)
	}
	if got := predictMeasure(t, s); got != "schutz" {
		t.Fatalf("after reload: %q, want schutz", got)
	}

	// /v1/model reports the new generation.
	req := httptest.NewRequest(http.MethodGet, "/v1/model", nil)
	mrec := httptest.NewRecorder()
	s.Handler().ServeHTTP(mrec, req)
	var got ModelStatus
	if err := json.Unmarshal(mrec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Generation != 2 {
		t.Fatalf("/v1/model generation = %d, want 2", got.Generation)
	}
}

func TestReloadFailureKeepsServing(t *testing.T) {
	boom := errors.New("snapshot unreadable")
	s := tinyServer(t, Options{
		Reloader: func() (*knn.Classifier, ModelInfo, error) { return nil, ModelInfo{}, boom },
	})
	if _, err := s.Reload(); !errors.Is(err, boom) {
		t.Fatalf("Reload error = %v, want wrapped %v", err, boom)
	}
	if st := s.Status(); st.Generation != 1 {
		t.Fatalf("generation after failed reload = %d, want 1", st.Generation)
	}
	if got := predictMeasure(t, s); got != "variance" {
		t.Fatalf("after failed reload: %q, want the old model's variance", got)
	}
	rec := post(t, s.Handler(), "/v1/admin/reload", "")
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("failed reload over HTTP: %d, want 500", rec.Code)
	}
}

func TestReloadPanicIsolated(t *testing.T) {
	s := tinyServer(t, Options{
		Reloader: func() (*knn.Classifier, ModelInfo, error) { panic("corrupt state") },
	})
	if _, err := s.Reload(); err == nil || !strings.Contains(err.Error(), "corrupt state") {
		t.Fatalf("Reload error = %v, want recovered panic", err)
	}
	if got := predictMeasure(t, s); got != "variance" {
		t.Fatalf("after panicking reload: %q, want variance", got)
	}
}

func TestReloadSelfTestRejectsHollowModel(t *testing.T) {
	for name, r := range map[string]Reloader{
		"nil classifier": func() (*knn.Classifier, ModelInfo, error) { return nil, ModelInfo{}, nil },
		"no samples": func() (*knn.Classifier, ModelInfo, error) {
			return knn.New(nil, distance.NewMemoizedTreeEdit(nil), knn.Config{K: 1}), ModelInfo{}, nil
		},
	} {
		s := tinyServer(t, Options{Reloader: r})
		if _, err := s.Reload(); err == nil || !strings.Contains(err.Error(), "self-test") {
			t.Fatalf("%s: Reload error = %v, want self-test rejection", name, err)
		}
		if got := predictMeasure(t, s); got != "variance" {
			t.Fatalf("%s: after rejected reload: %q, want variance", name, got)
		}
	}
}

func TestReloadWithoutReloader(t *testing.T) {
	s := tinyServer(t, Options{})
	if _, err := s.Reload(); !errors.Is(err, ErrNoReloader) {
		t.Fatalf("Reload error = %v, want ErrNoReloader", err)
	}
	rec := post(t, s.Handler(), "/v1/admin/reload", "")
	if rec.Code != http.StatusNotImplemented {
		t.Fatalf("reload without reloader over HTTP: %d, want 501", rec.Code)
	}
}

func TestReloadRejectedWhileDraining(t *testing.T) {
	s := tinyServer(t, Options{
		Reloader: func() (*knn.Classifier, ModelInfo, error) {
			return labeledClassifier("schutz"), ModelInfo{N: 2}, nil
		},
	})
	s.SetReady(false)
	if _, err := s.Reload(); !errors.Is(err, ErrDraining) {
		t.Fatalf("Reload while draining = %v, want ErrDraining", err)
	}
	rec := post(t, s.Handler(), "/v1/admin/reload", "")
	if rec.Code != http.StatusConflict {
		t.Fatalf("draining reload over HTTP: %d, want 409", rec.Code)
	}
}

func TestReloadMethodNotAllowed(t *testing.T) {
	s := tinyServer(t, Options{})
	req := httptest.NewRequest(http.MethodGet, "/v1/admin/reload", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET reload: %d, want 405", rec.Code)
	}
}

// TestRetryAfterScalesWithOccupancy pins the hint: 1s at every
// in-flight occupancy while serving, the 10s shutdown grace while
// draining.
func TestRetryAfterScalesWithOccupancy(t *testing.T) {
	s := tinyServer(t, Options{MaxInFlight: 4})
	for occ := 0; occ <= 4; occ++ {
		if occ > 0 {
			s.lim.tryAcquire()
		}
		if got := s.retryAfterSeconds(); got != 1 {
			t.Fatalf("occupancy %d/4: Retry-After = %d, want 1", occ, got)
		}
	}
	s.SetReady(false)
	if got := s.retryAfterSeconds(); got != 10 {
		t.Fatalf("draining Retry-After = %d, want the shutdown grace's 10", got)
	}
}

// TestSaturationRetryAfterHeader drives the hint end to end: a saturated
// server advertises 1s on the shed 503, and 10s once it is draining.
func TestSaturationRetryAfterHeader(t *testing.T) {
	s := tinyServer(t, Options{MaxInFlight: 1})
	s.lim.tryAcquire()
	defer s.lim.release()
	for _, want := range []string{"1", "10"} {
		if want == "10" {
			s.SetReady(false)
		}
		rec := post(t, s.Handler(), "/v1/predict", wireBody(t, false, trainCtx("q", 1)))
		if rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("saturated predict: %d, want 503", rec.Code)
		}
		if ra := rec.Header().Get("Retry-After"); ra != want {
			t.Fatalf("Retry-After = %q, want %q", ra, want)
		}
	}
}

// gatedMetric blocks every distance computation until the gate opens —
// the handle the drain test uses to hold requests in flight.
type gatedMetric struct {
	gate  chan struct{}
	inner distance.Metric
}

func (g *gatedMetric) Distance(a, b *session.Context) float64 {
	<-g.gate
	return g.inner.Distance(a, b)
}

func (g *gatedMetric) Name() string { return "gated" }

// TestDrainCompletesInFlight is the drain-under-load contract: requests
// already executing when Run's context is canceled complete with 200
// inside the shutdown grace, readiness flips immediately, a reload attempted
// mid-drain is rejected, and Run returns nil.
func TestDrainCompletesInFlight(t *testing.T) {
	gate := make(chan struct{})
	metric := &gatedMetric{gate: gate, inner: distance.NewMemoizedTreeEdit(nil)}
	sample := &offline.Sample{Context: trainCtx("train", 1), Labels: []string{"variance"}}
	clf := knn.New([]*offline.Sample{sample}, metric, knn.Config{K: 1, ThetaDelta: 0.25, Workers: 1})
	s := New(clf, ModelInfo{Method: "normalized", N: 2, TrainingSize: 1}, Options{
		MaxInFlight: 4,
		Reloader: func() (*knn.Classifier, ModelInfo, error) {
			return labeledClassifier("schutz"), ModelInfo{N: 2}, nil
		},
	})

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runDone := make(chan error, 1)
	go func() { runDone <- s.RunListener(ctx, ln) }()

	base := fmt.Sprintf("http://%s", ln.Addr())
	const inFlight = 3
	codes := make(chan int, inFlight)
	for i := 0; i < inFlight; i++ {
		body := wireBody(t, false, trainCtx(fmt.Sprintf("q%d", i), 1))
		go func() {
			resp, err := http.Post(base+"/v1/predict", "application/json", strings.NewReader(body))
			if err != nil {
				codes <- -1
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}

	// Wait until all three requests hold in-flight slots (blocked on the
	// gate inside the classifier).
	deadline := time.Now().Add(2 * time.Second)
	for {
		occ := len(s.lim)
		if occ >= inFlight {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d requests in flight", occ, inFlight)
		}
		time.Sleep(time.Millisecond)
	}

	cancel() // begin the drain with requests still executing

	// Readiness flips before the drain completes.
	readyDeadline := time.Now().Add(2 * time.Second)
	for s.isReady() {
		if time.Now().After(readyDeadline) {
			t.Fatal("readiness never flipped during drain")
		}
		time.Sleep(time.Millisecond)
	}

	// A reload racing the drain is rejected, not half-applied.
	if _, err := s.Reload(); !errors.Is(err, ErrDraining) {
		t.Fatalf("mid-drain Reload = %v, want ErrDraining", err)
	}

	close(gate) // release the in-flight predictions
	for i := 0; i < inFlight; i++ {
		select {
		case code := <-codes:
			if code != http.StatusOK {
				t.Fatalf("in-flight request finished with %d, want 200", code)
			}
		case <-time.After(4 * time.Second):
			t.Fatal("in-flight request did not complete during the drain")
		}
	}
	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("drain returned %v, want nil", err)
		}
	case <-time.After(4 * time.Second):
		t.Fatal("RunListener did not return after the drain")
	}
}
