package repro

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/snapshot"
)

// TestServedHeapStaysFlat serves rounds of freshly decoded requests from a
// loaded snapshot and checks that live heap does not grow with the
// request count: after round 20 it is within 10% of round 2. Any state a
// served predictor keeps per request (as the display memo it once
// scanned through did, holding every decoded query display) fails it.
func TestServedHeapStaysFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("serves 20 rounds of requests")
	}
	fw := testFramework(t)
	cfg := PredictorConfig{N: 2, K: 3, ThetaDelta: 1, ThetaI: -10}
	path := filepath.Join(t.TempDir(), "model.snap")
	if err := trainSnapshotPredictor(t, fw, cfg).Save(path); err != nil {
		t.Fatal(err)
	}
	pred, err := LoadPredictor(path)
	if err != nil {
		t.Fatal(err)
	}
	h := pred.Handler(ServeOptions{})

	ctxs := evalContexts(t, fw, cfg.N)
	var bodies [][]byte
	for lo := 0; lo < len(ctxs); lo += 32 {
		batch := make([]*snapshot.WireContext, 0, 32)
		for _, c := range ctxs[lo:min(lo+32, len(ctxs))] {
			batch = append(batch, EncodeWireContext(c))
		}
		body, err := json.Marshal(map[string]any{"contexts": batch})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	const rounds = 20
	heap := make([]uint64, rounds)
	for r := range heap {
		for _, body := range bodies {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict/batch", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				t.Fatalf("round %d: status %d: %s", r+1, rec.Code, rec.Body)
			}
		}
		heap[r] = liveHeap()
	}
	mb := func(b uint64) float64 { return float64(b) / (1 << 20) }
	t.Logf("%d contexts in %d requests per round; live heap %.2f MB after round 2, %.2f MB after round %d",
		len(ctxs), len(bodies), mb(heap[1]), mb(heap[rounds-1]), rounds)
	if heap[rounds-1] > heap[1]+heap[1]/10 {
		t.Fatalf("live heap grew from %.2f MB after round 2 to %.2f MB after round %d, more than 10%%",
			mb(heap[1]), mb(heap[rounds-1]), rounds)
	}
	runtime.KeepAlive(pred)
}
