// Package checkpoint persists the progress of long-running pipeline
// phases (offline analysis, kNN training) so a crash, SIGKILL, or
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
// checksummed envelope, so the file on disk is always a complete,
// verifiable snapshot of progress — a kill mid-write leaves the previous
// checkpoint intact. Writes are best-effort by design: a failed flush
// (disk trouble, or the checkpoint.write chaos probe) increments an obs
// counter and leaves the progress dirty in memory for the next flush;
// the computation itself never stalls on checkpoint I/O.
package checkpoint

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
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/atomicio"
	"repro/internal/faults"
	"repro/internal/obs"
)

// The on-disk envelope mirrors internal/snapshot's:
//
//	offset  size  field
//	0       8     magic "IDACKPTv"
//	8       4     format version (big-endian uint32)
//	12      4     flags (bit 0: payload is gzip-compressed)
//	16      8     payload length in bytes (big-endian uint64)
//	24      n     payload (JSON-encoded progress file, gzipped)
//	24+n    8     FNV-64a checksum of the payload bytes (big-endian)
const (
	magic = "IDACKPTv"
	// Version is the current checkpoint format version.
	Version = 1

	flagGzip = 1 << 0

	// maxPayload bounds the declared payload length so a corrupted header
	// cannot make the reader allocate unbounded memory.
	maxPayload = 8 << 30
)

// FileName is the checkpoint file inside a checkpoint directory.
const FileName = "progress.ckpt"

// ErrFingerprint is wrapped by Open when an existing checkpoint was
// taken against different inputs (datasets, session log, or
// result-affecting options) than the resuming run's.
var ErrFingerprint = errors.New("checkpoint fingerprint mismatch (different data or options; delete the checkpoint directory to start over)")

// ErrChecksum is wrapped by Open when the checkpoint payload does not
// match its stored checksum.
var ErrChecksum = errors.New("checkpoint checksum mismatch")

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

// progressFile is the JSON payload of the envelope.
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
	if obs.On() {
		mResumedHits.Inc()
	}
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
	if obs.On() {
		mWrites.Inc()
	}
	return nil
}

// encode wraps the progress file in the checksummed envelope.
func encode(f *progressFile) ([]byte, error) {
	raw, err := json.Marshal(f)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: encode: %w", err)
	}
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(raw); err != nil {
		return nil, fmt.Errorf("checkpoint: compress: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("checkpoint: compress: %w", err)
	}
	payload := zbuf.Bytes()

	out := make([]byte, 0, 24+len(payload)+8)
	var head [24]byte
	copy(head[:8], magic)
	binary.BigEndian.PutUint32(head[8:12], Version)
	binary.BigEndian.PutUint32(head[12:16], flagGzip)
	binary.BigEndian.PutUint64(head[16:24], uint64(len(payload)))
	out = append(out, head[:]...)
	out = append(out, payload...)
	h := fnv.New64a()
	h.Write(payload)
	var sum [8]byte
	binary.BigEndian.PutUint64(sum[:], h.Sum64())
	return append(out, sum[:]...), nil
}

// decode parses and verifies the envelope: magic and version first, then
// the checksum, and only then the JSON decode.
func decode(blob []byte) (*progressFile, error) {
	if len(blob) < 24+8 {
		return nil, fmt.Errorf("checkpoint: file truncated at %d bytes", len(blob))
	}
	if string(blob[:8]) != magic {
		return nil, fmt.Errorf("checkpoint: bad magic %q (not a checkpoint file)", blob[:8])
	}
	version := binary.BigEndian.Uint32(blob[8:12])
	if version > Version {
		return nil, fmt.Errorf("checkpoint: file version %d, this build reads <= %d", version, Version)
	}
	flags := binary.BigEndian.Uint32(blob[12:16])
	n := binary.BigEndian.Uint64(blob[16:24])
	if n > maxPayload || n != uint64(len(blob)-24-8) {
		return nil, fmt.Errorf("checkpoint: declared payload length %d does not fit a %d-byte file", n, len(blob))
	}
	payload := blob[24 : 24+n]
	h := fnv.New64a()
	h.Write(payload)
	if got, want := h.Sum64(), binary.BigEndian.Uint64(blob[24+n:]); got != want {
		return nil, fmt.Errorf("checkpoint: payload hash %016x, stored %016x: %w", got, want, ErrChecksum)
	}
	raw := payload
	if flags&flagGzip != 0 {
		zr, err := gzip.NewReader(bytes.NewReader(payload))
		if err != nil {
			return nil, fmt.Errorf("checkpoint: decompress: %w", err)
		}
		raw, err = io.ReadAll(zr)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: decompress: %w", err)
		}
		if err := zr.Close(); err != nil {
			return nil, fmt.Errorf("checkpoint: decompress: %w", err)
		}
	}
	var f progressFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	return &f, nil
}
