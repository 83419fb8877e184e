package snapshot

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"repro/internal/atomicio"
	"repro/internal/offline"
)

// The on-disk envelope is:
//
//	offset  size  field
//	0       8     magic "IDASNAPv"
//	8       4     format version (big-endian uint32)
//	12      4     flags (bit 0: payload is gzip-compressed)
//	16      8     payload length in bytes (big-endian uint64)
//	24      n     payload (JSON-encoded Model, gzipped when flagged)
//	24+n    8     FNV-64a checksum of the payload bytes (big-endian)
//
// Compatibility rule: readers accept any file whose version is <= their
// own Version (within-version additions must be backward-compatible JSON
// field additions); a file written by a newer version fails loudly with
// ErrNewerVersion rather than being half-understood. Corruption anywhere
// in the payload fails the checksum before any JSON is parsed.
const (
	magic = "IDASNAPv"
	// Version is the current snapshot format version.
	Version = 1

	flagGzip = 1 << 0

	// maxPayload bounds the declared payload length so a corrupted or
	// hostile header cannot make the reader allocate unbounded memory.
	maxPayload = 8 << 30
)

// ErrNewerVersion is wrapped by Read when the file was written by a newer
// format version than this build understands.
var ErrNewerVersion = errors.New("snapshot written by a newer format version")

// ErrChecksum is wrapped by Read when the payload bytes do not match the
// stored checksum.
var ErrChecksum = errors.New("snapshot checksum mismatch")

// Model is everything a trained predictor needs to produce bit-identical
// predictions in a fresh process: the hyper-parameters, the measure
// configuration (by name, resolved against the built-in registry on
// load), the per-measure Box-Cox/z-score normalization state, and the
// labeled training contexts with their shared display pool.
//
// All floating-point state is carried as JSON numbers, which Go encodes
// in shortest-exact form and parses back to the identical float64 — the
// format adds no rounding. Non-finite values (NaN/±Inf) are not
// JSON-encodable and make Write fail loudly rather than silently skew a
// restored model.
type Model struct {
	// Method is the offline comparison method name (offline.Method.String).
	Method string `json:"method"`
	// Measures are the measure-configuration names, in order.
	Measures []string `json:"measures"`

	// Hyper-parameters (repro.PredictorConfig).
	N          int     `json:"n"`
	K          int     `json:"k"`
	ThetaDelta float64 `json:"theta_delta"`
	ThetaI     float64 `json:"theta_i"`
	Workers    int     `json:"workers,omitempty"`
	// Fallback is the abstention degradation policy name
	// (knn.FallbackPolicy.String).
	Fallback string `json:"fallback,omitempty"`

	// Norms is the fitted Algorithm-2 normalization state per measure
	// (absent when the model was trained without a normalizer).
	Norms map[string]offline.MeasureNorm `json:"norms,omitempty"`

	// Displays is the shared display pool Sample contexts reference.
	Displays []*WireDisplay `json:"displays,omitempty"`
	// Samples is the labeled training set, in training order.
	Samples []SampleRec `json:"samples"`
}

// SampleRec is one serialized training sample: the n-context plus the
// label state the kNN vote reads.
type SampleRec struct {
	Context *WireContext `json:"context"`
	Labels  []string     `json:"labels,omitempty"`
	Best    float64      `json:"best,omitempty"`
}

// Write serializes the model to w in the versioned envelope.
func Write(w io.Writer, m *Model) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("snapshot: encode model: %w", err)
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(raw); err != nil {
		return fmt.Errorf("snapshot: compress: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("snapshot: compress: %w", err)
	}
	payload := zbuf.Bytes()

	var head [24]byte
	copy(head[:8], magic)
	binary.BigEndian.PutUint32(head[8:12], Version)
	binary.BigEndian.PutUint32(head[12:16], flagGzip)
	binary.BigEndian.PutUint64(head[16:24], uint64(len(payload)))
	if _, err := w.Write(head[:]); err != nil {
		return fmt.Errorf("snapshot: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("snapshot: write payload: %w", err)
	}
	h := fnv.New64a()
	h.Write(payload)
	var sum [8]byte
	binary.BigEndian.PutUint64(sum[:], h.Sum64())
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("snapshot: write checksum: %w", err)
	}
	return nil
}

// Read parses a snapshot: the model envelope plus full validation of any
// trailing sections (see section.go), whose contents are discarded. Use
// ReadSections to keep them. Validating the tail even when it's unwanted
// keeps Read's contract whole-file: a snapshot Read accepts has no
// corrupt byte anywhere, which the replica snapshot-push handler and the
// corruption tests rely on.
func Read(r io.Reader) (*Model, error) {
	m, _, err := ReadSections(r)
	return m, err
}

// readModel parses the model envelope alone: magic and version checks
// first, then the payload checksum, and only then the JSON decode. It
// consumes exactly the envelope's bytes, leaving the reader at the first
// trailing section (or EOF).
func readModel(r io.Reader) (*Model, error) {
	var head [24]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("snapshot: read header: %w", err)
	}
	if string(head[:8]) != magic {
		return nil, fmt.Errorf("snapshot: bad magic %q (not a predictor snapshot)", head[:8])
	}
	version := binary.BigEndian.Uint32(head[8:12])
	if version > Version {
		return nil, fmt.Errorf("snapshot: file version %d, this build reads <= %d: %w", version, Version, ErrNewerVersion)
	}
	flags := binary.BigEndian.Uint32(head[12:16])
	if flags&^uint32(flagGzip) != 0 {
		// The header is outside the payload checksum; refusing unknown
		// bits (a future format's feature or a flipped header byte) beats
		// silently misreading either.
		return nil, fmt.Errorf("snapshot: unknown flags %#x (corrupt header or newer format): %w", flags&^uint32(flagGzip), ErrNewerVersion)
	}
	n := binary.BigEndian.Uint64(head[16:24])
	if n > maxPayload {
		return nil, fmt.Errorf("snapshot: declared payload length %d exceeds the %d-byte cap", n, int64(maxPayload))
	}
	// Grow the buffer as bytes actually arrive instead of trusting the
	// declared length up front: a corrupt header claiming gigabytes must
	// fail on the short read, not on the allocation.
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, fmt.Errorf("snapshot: read payload: %w", err)
	}
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("snapshot: payload truncated: %d of %d declared bytes", len(payload), n)
	}
	var sum [8]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("snapshot: read checksum: %w", err)
	}
	h := fnv.New64a()
	h.Write(payload)
	if got, want := h.Sum64(), binary.BigEndian.Uint64(sum[:]); got != want {
		return nil, fmt.Errorf("snapshot: payload hash %016x, stored %016x: %w", got, want, ErrChecksum)
	}

	raw := payload
	if flags&flagGzip != 0 {
		zr, err := gzip.NewReader(bytes.NewReader(payload))
		if err != nil {
			return nil, fmt.Errorf("snapshot: decompress: %w", err)
		}
		raw, err = io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("snapshot: decompress: %w", err)
		}
		if err := zr.Close(); err != nil {
			return nil, fmt.Errorf("snapshot: decompress: %w", err)
		}
	}
	var m Model
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("snapshot: decode model: %w", err)
	}
	for i, d := range m.Displays {
		if err := checkDisplay(d); err != nil {
			return nil, fmt.Errorf("snapshot: display pool entry %d: %w", i+1, err)
		}
	}
	return &m, nil
}

// Save writes the model to a file path atomically (temp file + fsync +
// rename, see internal/atomicio): a crash or write error mid-save never
// leaves a truncated snapshot visible.
func Save(path string, m *Model) error {
	err := atomicio.WriteFile(path, func(w io.Writer) error {
		return Write(w, m)
	})
	if err != nil {
		return fmt.Errorf("snapshot: save: %w", err)
	}
	return nil
}

// Load reads a snapshot from a file path.
func Load(path string) (*Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapshot: load: %w", err)
	}
	defer f.Close()
	return Read(f)
}

// FileChecksum hashes the whole snapshot file (envelope included) with
// FNV-64a and returns it as 16 hex digits. This is the identity the
// replicated serving tier compares across processes: two replicas serve
// the same model iff their snapshot files hash equal, and the repair loop
// (DESIGN.md §11) pushes the router's copy to any replica whose /v1/model
// reports a different value. It is distinct from the envelope's internal
// payload checksum, which only guards one file against corruption.
func FileChecksum(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", fmt.Errorf("snapshot: checksum: %w", err)
	}
	defer f.Close()
	h := fnv.New64a()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("snapshot: checksum: %w", err)
	}
	return fmt.Sprintf("%016x", h.Sum64()), nil
}
