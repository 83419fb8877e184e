package serve

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"net/http"
	"os"

	"repro/internal/atomicio"
	"repro/internal/faults"
	"repro/internal/knn"
	"repro/internal/obs"
	"repro/internal/offline"
	"repro/internal/ring"
	"repro/internal/snapshot"
)

// Replica-side half of the sharded serving tier (DESIGN.md §11): a ring
// member loads the whole snapshot — one file stays the tier's unit of
// distribution and repair — but serves kNN *candidates* only for the
// shards the ring places on it. The router owns the cross-shard merge,
// gate, and vote; keeping replicas vote-free is what makes the merged
// answer provably bit-identical to a single-process scan.

var (
	mCandidates   = obs.C("serve.candidates")
	mSnapshotPush = obs.C("serve.snapshot_push")
)

// maxSnapshotPush bounds an accepted snapshot body independently of
// maxBodyBytes (models are much larger than predict requests).
const maxSnapshotPush = 1 << 30

// shardModel is one shard's slice of the training set: a classifier over
// the shard's samples (training order preserved) plus the map from
// shard-local sample positions back to global training indexes, so
// candidate answers speak the global numbering the router merges on.
type shardModel struct {
	clf    *knn.Classifier
	global []int
}

// buildShards partitions the classifier's training set across the ring's
// shards (by each sample context's placement key) and builds classifiers
// for the shards placed on node. Partitioning preserves training order
// within each shard, so ascending local index maps monotonically onto
// ascending global index — the property that keeps the merge's
// (dist, index) tie-break identical to the whole-model scan's.
func buildShards(clf *knn.Classifier, r *ring.Ring, node string) map[int]*shardModel {
	out := make(map[int]*shardModel)
	for _, sh := range r.NodeShards(node) {
		out[sh] = &shardModel{}
	}
	parts := make(map[int][]*offline.Sample, len(out))
	for i, s := range clf.Samples() {
		c := s.Context
		sh := r.ShardOf(ring.SampleKey(c.SessionID, c.T, c.N))
		sm, ok := out[sh]
		if !ok {
			continue
		}
		parts[sh] = append(parts[sh], s)
		sm.global = append(sm.global, i)
	}
	for sh, sm := range out {
		sm.clf = knn.New(parts[sh], clf.Metric(), clf.Config())
	}
	return out
}

// candidatesRequest asks one replica for per-query candidate sets from
// one shard it serves. Batching contexts keeps the router's fan-out at
// one request per (shard, batch), not per (query, shard). The router
// writes this body itself (candidatesBody); the struct is the replica's
// encoding/json decode (unmarshalCandidates).
type candidatesRequest struct {
	Shard int `json:"shard"`
	// MaxDist is the router's scan limit (knn.Config.ScanLimit): the
	// replica returns only candidates within it. Absent means +∞, the
	// superset a router that sends no limit merges.
	MaxDist  *float64                `json:"max_dist,omitempty"`
	Contexts []*snapshot.WireContext `json:"contexts"`
}

// candidatesResponse carries the shard's local top-k within the request's
// limit per query, indexes already remapped to global training order,
// plus the model provenance the router's repair loop compares across
// replicas.
type candidatesResponse struct {
	Shard      int               `json:"shard"`
	Generation uint64            `json:"generation"`
	Checksum   string            `json:"checksum,omitempty"`
	Results    [][]knn.Candidate `json:"results"`
}

// handleCandidates is POST /v1/knn/candidates: the replica-side scan of
// the sharded predict path. It answers 501 on a standalone server, 404
// for a shard the ring does not place here (the router treats that as a
// routing failure and moves to the next replica), 400 for a malformed
// context, one over the model's node cap or a negative max_dist, and
// otherwise the shard's top-k within max_dist per query with globally
// numbered indexes.
func (s *Server) handleCandidates(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodPost) {
		return
	}
	am := s.cur.Load()
	if am.shards == nil {
		writeJSON(w, http.StatusNotImplemented, errorResponse{Error: "not a ring replica"})
		return
	}
	mCandidates.Inc()
	rctx, done, ok := s.admit(w, r, "serve.candidates")
	if !ok {
		return
	}
	defer done()
	tr := obs.TraceFrom(r.Context())

	body, err := readBody(w, r)
	if err != nil {
		httpClientError(w, http.StatusRequestEntityTooLarge, err)
		return
	}
	req, ok := readCandidates(body, s.opts.MaxBatch, am.info.N)
	if !ok {
		mDecodeFallback.Inc()
		if req, err = unmarshalCandidates(body); err != nil {
			httpClientError(w, http.StatusBadRequest, err)
			return
		}
	}
	sm, ok := am.shards[req.shard]
	if !ok {
		httpClientError(w, http.StatusNotFound, fmt.Errorf("shard %d is not served by this replica", req.shard))
		return
	}
	if !req.checkBatch(w, s.opts.MaxBatch) {
		return
	}
	limit := math.Inf(1)
	if req.maxDist != nil {
		if *req.maxDist < 0 {
			httpClientError(w, http.StatusBadRequest, fmt.Errorf("max_dist %g is negative", *req.maxDist))
			return
		}
		limit = *req.maxDist
	}
	ctxs, err := req.contexts(am.info.N)
	if err != nil {
		httpClientError(w, http.StatusBadRequest, err)
		return
	}

	// serve.slow is the gray-failure chaos site: a latency-only fault,
	// injected while the in-flight slot is held (a slow request occupies
	// real capacity) and ended early when the caller gives up, keyed per
	// node so one replica can be skewed — even when a whole test ring
	// shares one in-process injector — via the site name
	// serve.slow.<node>.
	if faults.Enabled() && s.opts.NodeName != "" {
		site := faults.SiteServeSlow + "." + s.opts.NodeName
		first := ctxs[0]
		_ = faults.Inject(rctx, site, requestKey(first.SessionID, first.T, first.N, len(ctxs)), faults.KindLatency)
	}

	results := make([][]knn.Candidate, len(ctxs))
	for i, q := range ctxs {
		// Honor budget exhaustion between per-query scans: a cancelled
		// caller gains nothing from the remaining queries, and the 504
		// tells a still-listening router the failure is retryable.
		if rctx.Err() != nil {
			deadlineExceeded(w, tr)
			return
		}
		cds := sm.clf.Candidates(q, limit)
		for j := range cds {
			cds[j].Index = sm.global[cds[j].Index]
		}
		results[i] = cds
	}
	writeJSON(w, http.StatusOK, candidatesResponse{
		Shard:      req.shard,
		Generation: am.gen,
		Checksum:   am.info.Checksum,
		Results:    results,
	})
}

// handleSnapshotPush is POST /v1/admin/snapshot — the receiving end of
// the ring's self-healing repair loop. The body is a complete snapshot
// file; it is verified (frame checksum, decodable model) BEFORE it
// replaces anything on disk, then written atomically to ModelPath and
// hot-reloaded through the same validate-and-swap path as any reload. A
// push that fails verification never touches the file; one whose reload
// fails gets the previous bytes written back, so a restart finds the
// model that kept serving. Only a crash between the write and that
// restore can leave the pushed bytes on disk.
func (s *Server) handleSnapshotPush(w http.ResponseWriter, r *http.Request) {
	if !allowMethod(w, r, http.MethodPost) {
		return
	}
	if s.opts.ModelPath == "" || s.opts.Reloader == nil {
		writeJSON(w, http.StatusNotImplemented, errorResponse{Error: "snapshot push not enabled (no model path or reloader)"})
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSnapshotPush))
	if err != nil {
		httpClientError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("read snapshot body: %w", err))
		return
	}
	if _, err := snapshot.Read(bytes.NewReader(body)); err != nil {
		httpClientError(w, http.StatusBadRequest, fmt.Errorf("pushed snapshot rejected: %w", err))
		return
	}
	s.pushMu.Lock()
	defer s.pushMu.Unlock()
	prev, err := os.ReadFile(s.opts.ModelPath) // nil when there is no file
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: fmt.Sprintf("read current snapshot: %v", err)})
		return
	}
	if err := replaceFile(s.opts.ModelPath, body); err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: fmt.Sprintf("write snapshot: %v", err)})
		return
	}
	st, err := s.Reload()
	if err != nil {
		if rerr := replaceFile(s.opts.ModelPath, prev); rerr != nil {
			err = fmt.Errorf("%w; restoring the previous snapshot: %v", err, rerr)
		}
	}
	switch {
	case errors.Is(err, ErrDraining):
		writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
	case err != nil:
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
	default:
		mSnapshotPush.Inc()
		writeJSON(w, http.StatusOK, st)
	}
}

// replaceFile atomically replaces path with data, or removes path when
// data is nil.
func replaceFile(path string, data []byte) error {
	if data == nil {
		return os.Remove(path)
	}
	return atomicio.WriteFile(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}
