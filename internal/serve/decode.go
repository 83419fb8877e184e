package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/session"
	"repro/internal/snapshot"
)

// Request decoding (DESIGN.md §11). Each endpoint that decodes contexts
// (a server's and the router's predict endpoints, a replica's
// candidates endpoint) first reads its body in one pass with
// snapshot.Reader, straight into contexts; that covers the canonical
// JSON every client of the tier writes. A body the reader declines goes
// to encoding/json, counted in serve.decode_fallback: it decodes valid
// non-canonical JSON and words every 400. Both paths fill one request,
// so everything after decoding runs once for both.

// preallocBytes caps the buffer readBody sizes from a stated length: a
// Content-Length alone never claims more memory than this before the
// bytes arrive.
const preallocBytes = 1 << 20

// readBody reads a request body of at most maxBodyBytes, into one buffer
// when the request states a length of at most preallocBytes.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	rd := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if n := r.ContentLength; n > 0 && n <= preallocBytes {
		body := make([]byte, n)
		if _, err := io.ReadFull(rd, body); err != nil {
			return nil, fmt.Errorf("read body: %w", err)
		}
		return body, nil
	}
	body, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	return body, nil
}

// The envelope keys the reader accepts.
var (
	predictKeys    = []string{"context"}
	batchKeys      = []string{"contexts"}
	candidatesKeys = []string{"shard", "max_dist", "contexts"}
)

// request is a decoded predict or candidates body. Exactly one of ctxs
// and wire holds its contexts: ctxs those the reader decoded, wire those
// encoding/json decoded, which contexts still checks and decodes.
type request struct {
	shard   int
	maxDist *float64
	// raw holds each predict context's bytes as the client sent them.
	raw  [][]byte
	ctxs []*session.Context
	wire []*snapshot.WireContext
}

func (q *request) len() int { return len(q.ctxs) + len(q.wire) }

// checkBatch answers an empty or over-cap batch and reports whether the
// request passed.
func (q *request) checkBatch(w http.ResponseWriter, maxBatch int) bool {
	switch n := q.len(); {
	case n == 0:
		httpClientError(w, http.StatusBadRequest, errors.New("no contexts in request"))
	case n > maxBatch:
		httpClientError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("batch of %d exceeds the %d-context cap", n, maxBatch))
	default:
		return true
	}
	return false
}

// contexts returns the request's contexts: the reader's, or the wire
// contexts checked against the node cap and decoded.
func (q *request) contexts(maxNodes int) ([]*session.Context, error) {
	if q.ctxs != nil {
		return q.ctxs, nil
	}
	return decodeAll(q.wire, maxNodes)
}

// forwarded returns each predict context's bytes for the router to
// send to replicas: the client's, as the reader read them, or after the
// encoding/json fallback the checked wire context marshaled, which
// replicas read in one pass where they would decline the client's.
func (q *request) forwarded() [][]byte {
	for i, wc := range q.wire {
		if b, err := json.Marshal(wc); err == nil {
			q.raw[i] = b
		}
	}
	return q.raw
}

// readPredict reads {"context":C} or {"contexts":[C,…]} in one pass. It
// declines (ok false) what snapshot.Reader declines and a batch of more
// than maxBatch contexts.
func readPredict(body []byte, batch bool, maxBatch, maxNodes int) (q request, ok bool) {
	ok = snapshot.ReadBody(body, maxNodes, func(rd *snapshot.Reader) bool {
		if batch {
			return rd.Object(batchKeys, func(string) bool { return q.readContexts(rd, maxBatch) })
		}
		return rd.Object(predictKeys, func(string) bool { return q.readContext(rd) })
	})
	return q, ok
}

// readCandidates reads {"shard":N,"max_dist":L,"contexts":[C,…]} in one
// pass, declining as readPredict does.
func readCandidates(body []byte, maxBatch, maxNodes int) (q request, ok bool) {
	ok = snapshot.ReadBody(body, maxNodes, func(rd *snapshot.Reader) bool {
		return rd.Object(candidatesKeys, func(key string) (ok bool) {
			switch key {
			case "shard":
				q.shard, ok = rd.Int()
			case "max_dist":
				var d float64
				d, ok = rd.Float()
				q.maxDist = &d
			default:
				ok = q.readContexts(rd, maxBatch)
			}
			return ok
		})
	})
	return q, ok
}

func (q *request) readContexts(rd *snapshot.Reader, maxBatch int) bool {
	return rd.Array(func() bool { return len(q.ctxs) < maxBatch && q.readContext(rd) })
}

func (q *request) readContext(rd *snapshot.Reader) bool {
	c, raw, ok := rd.Context()
	q.ctxs, q.raw = append(q.ctxs, c), append(q.raw, raw)
	return ok
}

// unmarshalPredict is the encoding/json decode of a predict body: the
// envelope, then each context. A null single context is a missing one.
func unmarshalPredict(body []byte, batch bool) (request, error) {
	var raw []json.RawMessage
	if batch {
		var req struct {
			Contexts []json.RawMessage `json:"contexts"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return request{}, fmt.Errorf("decode request: %w", err)
		}
		raw = req.Contexts
	} else {
		var req struct {
			Context json.RawMessage `json:"context"`
		}
		if err := json.Unmarshal(body, &req); err != nil {
			return request{}, fmt.Errorf("decode request: %w", err)
		}
		if req.Context != nil {
			raw = []json.RawMessage{req.Context}
		}
	}
	q := request{raw: make([][]byte, len(raw)), wire: make([]*snapshot.WireContext, len(raw))}
	for i, rc := range raw {
		if err := json.Unmarshal(rc, &q.wire[i]); err != nil {
			return request{}, fmt.Errorf("decode request: context %d: %w", i, err)
		}
		q.raw[i] = rc
	}
	if !batch && len(q.wire) == 1 && q.wire[0] == nil {
		return request{}, nil
	}
	return q, nil
}

// unmarshalCandidates is the encoding/json decode of a candidates body.
func unmarshalCandidates(body []byte) (request, error) {
	var req candidatesRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return request{}, fmt.Errorf("decode request: %w", err)
	}
	return request{shard: req.Shard, maxDist: req.MaxDist, wire: req.Contexts}, nil
}

// decodeAll checks every request context against the node cap, then
// decodes them, so a request with an oversized context is refused before
// any of its displays is decoded.
func decodeAll(wire []*snapshot.WireContext, maxNodes int) ([]*session.Context, error) {
	for i, wc := range wire {
		if err := snapshot.CheckContext(wc, maxNodes); err != nil {
			return nil, fmt.Errorf("context %d: %w", i, err)
		}
	}
	out := make([]*session.Context, len(wire))
	for i, wc := range wire {
		c, err := snapshot.DecodeContext(wc, nil)
		if err != nil {
			return nil, fmt.Errorf("context %d: %w", i, err)
		}
		out[i] = c
	}
	return out, nil
}
