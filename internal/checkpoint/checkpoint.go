// Package checkpoint persists the progress of a long-running pipeline
// phase (the offline analysis's reference pass) so a crash, SIGKILL, or
// cancellation can resume instead of restarting from zero. The design
// contract, enforced by the root kill-resume-compare chaos test, is that
// a resumed run produces output *bit-identical* to an uninterrupted one:
// checkpoints therefore store only completed results keyed by stable
// indices (never scheduler-dependent state), and resume eligibility is
// gated on a content fingerprint of the inputs plus every
// result-affecting option.
//
// Durability model: a single checkpoint file per directory, written
// atomically (temp + fsync + rename, internal/atomicio) inside a
// checksummed frame (internal/frame), so the file on disk is always a
// complete, verifiable snapshot of progress — a kill mid-write leaves the
// previous checkpoint intact. Writes are best-effort by design: a failed flush
// (disk trouble, or the checkpoint.write chaos probe) increments an obs
// counter and leaves the progress dirty in memory for the next flush;
// the computation itself never stalls on checkpoint I/O.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/atomicio"
	"repro/internal/faults"
	"repro/internal/frame"
	"repro/internal/obs"
)

// A checkpoint file is one internal/frame frame under the magic
// "IDACKPTv", holding the JSON-encoded progress file.
const (
	magic = "IDACKPTv"
	// Version is the current checkpoint format version.
	Version = 1
)

// FileName is the checkpoint file inside a checkpoint directory.
const FileName = "progress.ckpt"

// ErrFingerprint is wrapped by Open when an existing checkpoint was
// taken against different inputs (datasets, session log, or
// result-affecting options) than the resuming run's.
var ErrFingerprint = errors.New("checkpoint fingerprint mismatch (different data or options; delete the checkpoint directory to start over)")

// ErrChecksum is wrapped by Open when the checkpoint payload does not
// match its stored checksum.
var ErrChecksum = frame.ErrChecksum

// ErrNewerVersion is wrapped by Open when the checkpoint was written by a
// newer format version, or sets flag bits this build does not know.
var ErrNewerVersion = frame.ErrNewerVersion

var (
	mWrites      = obs.C("checkpoint.writes")
	mWriteFailed = obs.C("checkpoint.write_failed")
	mResumedHits = obs.C("checkpoint.stages_resumed")
)

// Progress is a stage's completion state, mirroring the Done/Total shape
// of pipeline.Error so partially-checkpointed stages report the same way
// interrupted ones do.
type Progress struct {
	Done     int  `json:"done"`
	Total    int  `json:"total"`
	Complete bool `json:"complete,omitempty"`
}

// stageRec is one stage's persisted record.
type stageRec struct {
	Progress
	Payload json.RawMessage `json:"payload,omitempty"`
}

// progressFile is the JSON payload of the frame.
type progressFile struct {
	// Fingerprint identifies the inputs this progress belongs to
	// (hex-encoded; see session.Repository.Fingerprint and the offline
	// option hashing layered on top of it).
	Fingerprint string               `json:"fingerprint"`
	Stages      map[string]*stageRec `json:"stages"`
}

// Manager owns one checkpoint file. All methods are safe for concurrent
// use; worker-pool completion callbacks update it directly.
type Manager struct {
	path        string
	fingerprint uint64
	resumed     bool

	mu      sync.Mutex
	f       progressFile
	dirty   bool
	flushes int
}

// Open prepares a checkpoint manager rooted at dir (created if needed),
// for inputs identified by fingerprint. With resume set, an existing
// checkpoint file is loaded and its stages become visible through Stage;
// a fingerprint mismatch or corruption fails loudly rather than silently
// recomputing (or worse, resuming against the wrong data). Without
// resume, any existing checkpoint is ignored and overwritten by the
// first flush.
func Open(dir string, fingerprint uint64, resume bool) (*Manager, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create dir: %w", err)
	}
	m := &Manager{
		path:        filepath.Join(dir, FileName),
		fingerprint: fingerprint,
		f: progressFile{
			Fingerprint: fmt.Sprintf("%016x", fingerprint),
			Stages:      map[string]*stageRec{},
		},
	}
	if !resume {
		return m, nil
	}
	blob, err := os.ReadFile(m.path)
	if errors.Is(err, os.ErrNotExist) {
		return m, nil // nothing to resume; start fresh
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	f, err := decode(blob)
	if err != nil {
		return nil, err
	}
	if f.Fingerprint != m.f.Fingerprint {
		return nil, fmt.Errorf("checkpoint: stored %s, inputs hash %s: %w",
			f.Fingerprint, m.f.Fingerprint, ErrFingerprint)
	}
	if f.Stages == nil {
		f.Stages = map[string]*stageRec{}
	}
	m.f = *f
	m.resumed = true
	return m, nil
}

// Path returns the checkpoint file path.
func (m *Manager) Path() string { return m.path }

// Resumed reports whether Open loaded an existing compatible checkpoint.
func (m *Manager) Resumed() bool { return m.resumed }

// Stage returns a stage's persisted payload and progress. ok is false
// when the stage was never checkpointed. Callers treat the payload as
// advisory: a stage that fails to decode is simply recomputed.
func (m *Manager) Stage(name string) (payload json.RawMessage, p Progress, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rec, ok := m.f.Stages[name]
	if !ok {
		return nil, Progress{}, false
	}
	mResumedHits.Inc()
	return rec.Payload, rec.Progress, true
}

// Update records a stage's progress and payload and flushes the file.
// Callers throttle their own cadence (e.g. every N completed items); a
// flush that fails with an injected fault is absorbed — the progress
// stays dirty in memory and the next Update or Sync retries it — so
// checkpointing never fails the computation it protects. A nil payload
// keeps the stage's previous payload.
func (m *Manager) Update(name string, p Progress, payload any) error {
	var raw json.RawMessage
	if payload != nil {
		blob, err := json.Marshal(payload)
		if err != nil {
			return fmt.Errorf("checkpoint: encode %s payload: %w", name, err)
		}
		raw = blob
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rec := m.f.Stages[name]
	if rec == nil {
		rec = &stageRec{}
		m.f.Stages[name] = rec
	}
	rec.Progress = p
	if raw != nil {
		rec.Payload = raw
	}
	m.dirty = true
	return m.flushLocked()
}

// Sync flushes any dirty progress to disk now.
func (m *Manager) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.dirty {
		return nil
	}
	return m.flushLocked()
}

func (m *Manager) flushLocked() error {
	blob, err := encode(&m.f)
	if err != nil {
		return err
	}
	// The probe key is the flush ordinal: checkpoint writes are pure
	// side-effects of already-computed results, so write-fault decisions
	// can never influence pipeline output — only whether this particular
	// flush persists.
	key := strconv.Itoa(m.flushes)
	m.flushes++
	err = faults.Guard(nil, faults.SiteCheckpointWrite, key, func() error {
		return atomicio.WriteFile(m.path, func(w io.Writer) error {
			_, werr := w.Write(blob)
			return werr
		})
	})
	if err != nil {
		mWriteFailed.Inc()
		if faults.IsInjected(err) {
			return nil // degraded: stay dirty, retry at the next flush
		}
		return err
	}
	m.dirty = false
	mWrites.Inc()
	return nil
}

// encode wraps the progress file in the checksummed frame.
func encode(f *progressFile) ([]byte, error) {
	raw, err := json.Marshal(f)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	var buf bytes.Buffer
	if err := frame.Write(&buf, magic, Version, raw); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return buf.Bytes(), nil
}

// decode verifies the frame, which must fill the file, and only then
// decodes the JSON inside it.
func decode(blob []byte) (*progressFile, error) {
	rd := bytes.NewReader(blob)
	raw, err := frame.Read(rd, magic, Version)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if rd.Len() != 0 {
		return nil, fmt.Errorf("checkpoint: %d bytes after the frame", rd.Len())
	}
	var f progressFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	return &f, nil
}
