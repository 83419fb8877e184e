package snapshot

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"

	"repro/internal/atomicio"
	"repro/internal/frame"
	"repro/internal/measures"
	"repro/internal/offline"
)

// A snapshot is one internal/frame frame under the magic "IDASNAPv",
// holding the JSON-encoded Model, optionally followed by retired
// trailing sections (see section.go). Readers accept any version up to
// Version (within-version additions must be backward-compatible JSON
// field additions); a newer file fails loudly with ErrNewerVersion
// rather than being half-understood. Corruption anywhere in the file
// fails before any JSON is parsed.
const (
	magic = "IDASNAPv"
	// Version is the current snapshot format version.
	Version = 1
)

// ErrNewerVersion is wrapped by Read when the file was written by a newer
// format version than this build understands.
var ErrNewerVersion = frame.ErrNewerVersion

// ErrChecksum is wrapped by Read when the payload bytes do not match the
// stored checksum.
var ErrChecksum = frame.ErrChecksum

// Model is everything a trained predictor needs to produce bit-identical
// predictions in a fresh process: the hyper-parameters, the measure
// configuration (by name, resolved against the built-in registry on
// load), the per-measure Box-Cox/z-score normalization state, and the
// labeled training contexts with their shared display pool. It carries
// no deployment setting: the serving process picks its own worker
// count, and a "workers" key written by earlier builds is ignored.
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

// Write serializes the model to w in one frame.
func Write(w io.Writer, m *Model) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("snapshot: encode model: %w", err)
	}
	if err := frame.Write(w, magic, Version, raw); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	return nil
}

// Read parses a snapshot: the model frame, then every trailing section,
// each verified and discarded (see section.go), and only then the JSON
// model, which must pass Validate. Validating the whole file keeps
// Read's contract whole-file: a snapshot Read accepts has no corrupt
// byte anywhere and a model the scan can serve, which the replica
// snapshot-push handler and the corruption tests rely on.
func Read(r io.Reader) (*Model, error) {
	raw, err := frame.Read(r, magic, Version)
	if err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	if err := skipSections(r); err != nil {
		return nil, err
	}
	var m Model
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("snapshot: decode model: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// fallbackNames are the names knn.ParseFallbackPolicy accepts. This
// package cannot import knn, since the tree-edit metric's tests import
// this one; TestValidateFallbackNames keeps the two lists in step.
var fallbackNames = map[string]bool{"": true, "abstain": true, "nearest": true, "prior": true}

// Validate refuses a model the scan cannot serve: an unknown method,
// fallback or measure name; n or k below 1; a negative θ_δ; no samples;
// a null or oversized display in the pool; a sample context that is null
// or has more than n nodes. Read runs it; a model decoded another way
// must run it before use.
func (m *Model) Validate() error {
	if _, err := offline.ParseMethod(m.Method); err != nil {
		return fmt.Errorf("snapshot: %w", err)
	}
	if !fallbackNames[m.Fallback] {
		return fmt.Errorf("snapshot: unknown fallback policy %q (want abstain, nearest or prior)", m.Fallback)
	}
	reg := measures.NewRegistry()
	for _, name := range m.Measures {
		if _, err := reg.Get(name); err != nil {
			return fmt.Errorf("snapshot: %w", err)
		}
	}
	switch {
	case m.N < 1:
		return fmt.Errorf("snapshot: n = %d, want at least 1", m.N)
	case m.K < 1:
		return fmt.Errorf("snapshot: k = %d, want at least 1", m.K)
	case !(m.ThetaDelta >= 0):
		return fmt.Errorf("snapshot: θ_δ = %g, want at least 0", m.ThetaDelta)
	case len(m.Samples) == 0:
		return errors.New("snapshot: model has no samples")
	}
	for i, d := range m.Displays {
		if err := checkDisplay(d); err != nil {
			return fmt.Errorf("snapshot: display pool entry %d: %w", i+1, err)
		}
	}
	for i, s := range m.Samples {
		if err := CheckContext(s.Context, m.N); err != nil {
			return fmt.Errorf("snapshot: sample %d: %w", i, err)
		}
	}
	return nil
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

// FileChecksum hashes the whole snapshot file (frame included) with
// FNV-64a and returns it as 16 hex digits. This is the identity the
// replicated serving tier compares across processes: two replicas serve
// the same model iff their snapshot files hash equal, and the repair loop
// (DESIGN.md §11) pushes the router's copy to any replica whose /v1/model
// reports a different value. It is distinct from the frame's internal
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
