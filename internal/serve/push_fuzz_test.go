package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/distance"
	"repro/internal/frame"
	"repro/internal/knn"
	"repro/internal/offline"
	"repro/internal/snapshot"
)

// snapshotReloader re-reads the snapshot at path as repro.SnapshotReloader
// does: snapshot.Load runs Validate, and every sample context must decode
// against the display pool; the file's checksum is stamped on the model.
func snapshotReloader(path string) Reloader {
	return func() (*knn.Classifier, ModelInfo, error) {
		m, err := snapshot.Load(path)
		if err != nil {
			return nil, ModelInfo{}, err
		}
		fb, _ := knn.ParseFallbackPolicy(m.Fallback) // Validate checked the name
		displays := snapshot.DecodeDisplays(m.Displays)
		samples := make([]*offline.Sample, len(m.Samples))
		for i, rec := range m.Samples {
			ctx, err := snapshot.DecodeContext(rec.Context, displays)
			if err != nil {
				return nil, ModelInfo{}, err
			}
			samples[i] = &offline.Sample{Context: ctx, Labels: rec.Labels, Best: rec.Best}
		}
		sum, err := snapshot.FileChecksum(path)
		if err != nil {
			return nil, ModelInfo{}, err
		}
		clf := knn.New(samples, distance.TreeEdit{}, knn.Config{
			K: m.K, ThetaDelta: m.ThetaDelta, Fallback: fb,
		})
		return clf, ModelInfo{Method: m.Method, N: m.N, Checksum: sum}, nil
	}
}

// FuzzSnapshotPush drives POST /v1/admin/snapshot with hostile bodies on
// a replica whose ModelPath is a temp file. The first input byte picks
// the body: even sends the rest as it is; odd wraps the rest in a valid
// snapshot frame, checksum included, so the fuzzer reaches model decode,
// reload and restore. The handler never panics; after any answer but 200
// the model file holds its previous bytes and the generation is
// unchanged. After a 200 the file holds the pushed body, and the replica
// answers a prediction whose allocation stays under 1 MB plus 64 bytes
// per byte of the model's JSON: no field of the model, k included, sizes
// an allocation beyond what its samples and nodes fill.
func FuzzSnapshotPush(f *testing.F) {
	var good bytes.Buffer
	if err := snapshot.Write(&good, testSnapshotModel("new")); err != nil {
		f.Fatal(err)
	}
	model, err := json.Marshal(testSnapshotModel("new"))
	if err != nil {
		f.Fatal(err)
	}
	bogus := testSnapshotModel("new")
	bogus.Method = "bogus"
	bogusModel, err := json.Marshal(bogus)
	if err != nil {
		f.Fatal(err)
	}
	wide := testSnapshotModel("new")
	wide.K = 1_000_000
	wideModel, err := json.Marshal(wide)
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		append([]byte{0}, good.Bytes()...),
		append([]byte{0}, good.Bytes()[:good.Len()/2]...),
		append([]byte{1}, model...),
		append([]byte{1}, bogusModel...),
		append([]byte{1}, wideModel...),
		append([]byte{1}, `{}`...),
		append([]byte{1}, `{"method":"normalized","samples":[{"context":null}]}`...),
		{},
	} {
		f.Add(seed)
	}
	var served bytes.Buffer
	if err := snapshot.Write(&served, testSnapshotModel("old")); err != nil {
		f.Fatal(err)
	}
	query := wireBody(f, false, trainCtx("q", 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		body := data
		if len(data) > 0 {
			body = data[1:]
			if data[0]&1 == 1 {
				var buf bytes.Buffer
				if err := frame.Write(&buf, "IDASNAPv", snapshot.Version, body); err != nil {
					t.Fatal(err)
				}
				body = buf.Bytes()
			}
		}
		path := filepath.Join(t.TempDir(), "model.snap")
		if err := os.WriteFile(path, served.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		reload := snapshotReloader(path)
		clf, info, err := reload()
		if err != nil {
			t.Fatal(err)
		}
		s := New(clf, info, Options{ModelPath: path, Reloader: reload})
		gen := s.Status().Generation

		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/admin/snapshot", bytes.NewReader(body)))
		onDisk, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("model file after a %d: %v", rec.Code, err)
		}
		if rec.Code == http.StatusOK {
			if !bytes.Equal(onDisk, body) {
				t.Fatal("accepted push: the model file does not hold the pushed body")
			}
			raw, err := frame.Read(bytes.NewReader(body), "IDASNAPv", snapshot.Version)
			if err != nil {
				t.Fatalf("accepted push does not frame: %v", err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			pred := post(t, s.Handler(), "/v1/predict", query)
			runtime.ReadMemStats(&after)
			if pred.Code != http.StatusOK {
				t.Fatalf("prediction after an accepted push: %d %s", pred.Code, pred.Body)
			}
			if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(1<<20+64*len(raw)); alloc > limit {
				t.Fatalf("prediction after an accepted push allocated %d bytes, over %d", alloc, limit)
			}
			return
		}
		if !bytes.Equal(onDisk, served.Bytes()) {
			t.Fatalf("push answered %d but replaced the model file: %s", rec.Code, rec.Body)
		}
		if got := s.Status().Generation; got != gen {
			t.Fatalf("push answered %d but moved the generation %d -> %d", rec.Code, gen, got)
		}
	})
}
