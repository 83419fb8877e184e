package checkpoint

import (
	"errors"
	"os"
	"testing"

	"repro/internal/faults"
	"repro/internal/obs"
)

type payload struct {
	Scores []float64 `json:"scores"`
}

func TestRoundTripResume(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, 42, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Resumed() {
		t.Fatal("fresh manager claims to have resumed")
	}
	if err := m.Update("raw", Progress{Done: 3, Total: 10}, payload{Scores: []float64{1.5, 2.25, 0.125}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Update("raw", Progress{Done: 10, Total: 10, Complete: true}, payload{Scores: []float64{1.5, 2.25, 0.125}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, 42, true)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Resumed() {
		t.Fatal("manager did not resume from an existing checkpoint")
	}
	raw, p, ok := r.Stage("raw")
	if !ok || !p.Complete || p.Done != 10 || p.Total != 10 {
		t.Fatalf("stage raw = %+v ok=%v, want complete 10/10", p, ok)
	}
	if string(raw) != `{"scores":[1.5,2.25,0.125]}` {
		t.Fatalf("payload round trip drifted: %s", raw)
	}
	if _, _, ok := r.Stage("missing"); ok {
		t.Fatal("unknown stage reported as checkpointed")
	}
}

func TestFingerprintMismatchFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update("s", Progress{Complete: true}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 2, true); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("resume against different inputs: err = %v, want ErrFingerprint", err)
	}
	// Without resume the stale checkpoint is ignored, not an error.
	if _, err := Open(dir, 2, false); err != nil {
		t.Fatalf("fresh open over a stale checkpoint: %v", err)
	}
}

func TestCorruptionDetected(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update("s", Progress{Done: 1, Total: 2}, payload{Scores: []float64{1}}); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(m.Path())
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit: the checksum must catch it before any decode.
	blob[30] ^= 0x40
	if err := os.WriteFile(m.Path(), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 7, true); !errors.Is(err, ErrChecksum) {
		t.Fatalf("bit-flipped checkpoint: err = %v, want ErrChecksum", err)
	}
	// Truncation is caught too.
	if err := os.WriteFile(m.Path(), blob[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 7, true); err == nil {
		t.Fatal("truncated checkpoint resumed without error")
	}
}

// TestNewerFrameRefused: a checkpoint from a newer format — a higher
// version, or a flag bit this build does not know — fails Open with
// ErrNewerVersion instead of resuming from half-understood bytes.
func TestNewerFrameRefused(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, 11, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update("s", Progress{Done: 1, Total: 2}, payload{Scores: []float64{2}}); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(m.Path())
	if err != nil {
		t.Fatal(err)
	}
	for name, edit := range map[string]func(b []byte){
		"unknown flag bit": func(b []byte) { b[15] |= 0x02 },
		"newer version":    func(b []byte) { b[11]++ }, // big-endian version 1 → 2
	} {
		bad := append([]byte(nil), good...)
		edit(bad)
		if err := os.WriteFile(m.Path(), bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir, 11, true); !errors.Is(err, ErrNewerVersion) {
			t.Errorf("%s: Open err = %v, want ErrNewerVersion", name, err)
		}
	}
	// Bytes after the frame are refused too.
	if err := os.WriteFile(m.Path(), append(good, 0), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, 11, true); err == nil {
		t.Error("a checkpoint with a trailing byte resumed")
	}
}

func TestMissingFileResumesFresh(t *testing.T) {
	m, err := Open(t.TempDir(), 9, true)
	if err != nil {
		t.Fatal(err)
	}
	if m.Resumed() {
		t.Fatal("resumed with no checkpoint on disk")
	}
}

// TestInjectedWriteFailureDegrades pins the best-effort contract: an
// exhausted checkpoint.write fault must not surface as an error — the
// progress stays dirty and the next (unfaulted) Sync lands it.
func TestInjectedWriteFailureDegrades(t *testing.T) {
	// Restore the injector this test found, so an environment-armed run
	// keeps its faults in later tests.
	if prev, armed := faults.Active(); armed {
		t.Cleanup(func() { faults.Enable(prev) })
	} else {
		t.Cleanup(faults.Disable)
	}
	dir := t.TempDir()
	m, err := Open(dir, 5, false)
	if err != nil {
		t.Fatal(err)
	}

	faults.Enable(faults.Config{Prob: 1, Seed: 1, Kinds: faults.KindError | faults.KindPanic,
		Sites: []string{faults.SiteCheckpointWrite}})
	failedBefore := obs.C("checkpoint.write_failed").Load()
	if err := m.Update("s", Progress{Done: 1, Total: 4}, payload{Scores: []float64{3}}); err != nil {
		t.Fatalf("injected write failure leaked out of Update: %v", err)
	}
	faults.Disable()
	if got := obs.C("checkpoint.write_failed").Load(); got == failedBefore {
		t.Fatal("p=1 write fault did not count a failed flush")
	}
	if _, err := os.Stat(m.Path()); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("faulted flush left a file: %v", err)
	}

	// The injector is disarmed; the retained dirty state must land now.
	if err := m.Sync(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, 5, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, p, ok := r.Stage("s"); !ok || p.Done != 1 {
		t.Fatalf("recovered flush lost the stage: %+v ok=%v", p, ok)
	}
}

func TestNilPayloadKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	m, err := Open(dir, 3, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Update("s", Progress{Done: 1, Total: 2}, payload{Scores: []float64{8}}); err != nil {
		t.Fatal(err)
	}
	if err := m.Update("s", Progress{Done: 2, Total: 2, Complete: true}, nil); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir, 3, true)
	if err != nil {
		t.Fatal(err)
	}
	raw, p, ok := r.Stage("s")
	if !ok || !p.Complete {
		t.Fatalf("stage not complete after nil-payload update: %+v", p)
	}
	if string(raw) != `{"scores":[8]}` {
		t.Fatalf("nil-payload update clobbered the payload: %s", raw)
	}
}
