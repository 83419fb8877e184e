package snapshot

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"testing"
)

// oldSection is a trailing section as earlier builds wrote it.
type oldSection struct {
	kind, version uint32
	payload       []byte
}

// retiredIndex is a kind-1 section holding a small vantage-point index,
// the only section earlier builds wrote.
func retiredIndex(payload string) oldSection {
	return oldSection{kind: 1, version: 1, payload: []byte(payload)}
}

// appendSection appends s to file in the section format of section.go:
// gzipped payload, checksum over the header fields and the payload. It
// reproduces the writer earlier builds had, and also writes what no
// writer ever did (unknown kinds, future versions) with valid checksums.
func appendSection(t testing.TB, file []byte, s oldSection) []byte {
	t.Helper()
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(s.payload); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	payload := zbuf.Bytes()
	head := make([]byte, 28)
	copy(head, sectionMagic)
	binary.BigEndian.PutUint32(head[8:12], s.kind)
	binary.BigEndian.PutUint32(head[12:16], s.version)
	binary.BigEndian.PutUint32(head[16:20], 1) // gzip
	binary.BigEndian.PutUint64(head[20:28], uint64(len(payload)))
	h := fnv.New64a()
	h.Write(head[8:])
	h.Write(payload)
	out := append(append(append([]byte(nil), file...), head...), payload...)
	return binary.BigEndian.AppendUint64(out, h.Sum64())
}

// sectionFile writes a model followed by the given sections and returns
// the bytes.
func sectionFile(t testing.TB, secs ...oldSection) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, testModel()); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, s := range secs {
		data = appendSection(t, data, s)
	}
	return data
}

// TestRetiredSectionDiscarded: a file with a retired index section reads
// to the model of the same file without it, which re-encodes to the
// sectionless bytes.
func TestRetiredSectionDiscarded(t *testing.T) {
	plain := sectionFile(t)
	m, err := Read(bytes.NewReader(sectionFile(t, retiredIndex(`{"count":3}`))))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := Write(&again, m); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), plain) {
		t.Fatal("model read past a retired section re-encodes differently from the sectionless file")
	}
}

func TestSectionlessFileReadsFine(t *testing.T) {
	data := sectionFile(t) // no sections: the only format this build writes
	if m, err := Read(bytes.NewReader(data)); err != nil || m == nil {
		t.Fatalf("Read on sectionless file = (%v, %v)", m != nil, err)
	}
}

// TestReadValidatesSectionsItDiscards: the whole-file validation contract
// — Read (which ignores section content) must still refuse a file whose
// trailing section is corrupt.
func TestReadValidatesSectionsItDiscards(t *testing.T) {
	data := sectionFile(t, retiredIndex(`{"count":1}`))
	bad := append([]byte(nil), data...)
	bad[len(bad)-12] ^= 0x01 // inside the section payload/checksum tail
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("Read accepted a file with a corrupt trailing section")
	}
}

func TestSectionUnknownKindIsNewerVersion(t *testing.T) {
	// A future writer emits a kind this build has never heard of, with a
	// correctly computed checksum — the loud, typed refusal.
	data := sectionFile(t, oldSection{kind: 999, version: 1, payload: []byte("future payload")})
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrNewerVersion) {
		t.Fatalf("unknown kind err = %v, want ErrNewerVersion", err)
	}
}

func TestSectionNewerVersionRefused(t *testing.T) {
	data := sectionFile(t, oldSection{kind: 1, version: 2, payload: []byte("v2 payload")})
	if _, err := Read(bytes.NewReader(data)); !errors.Is(err, ErrNewerVersion) {
		t.Fatalf("newer version err = %v, want ErrNewerVersion", err)
	}
}

// TestSectionBitFlipSweep extends the frame's single-bit corruption
// sweep over a section-bearing file: every flipped bit — section header
// fields, payload, checksum, and the model frame apart from its version
// field — must refuse to load. The section checksum covers its header
// fields precisely so a version or flags flip cannot read as a different
// valid header; the model frame's version field predates that hardening
// (its checksum covers only the payload, and a 1 → 0 version flip still
// satisfies the <= Version compatibility rule), so it is the one region
// excluded here.
func TestSectionBitFlipSweep(t *testing.T) {
	good := sectionFile(t, retiredIndex(`{"leaf_size":8,"count":2,"root":0,"nodes":[{"v":-1,"in":-1,"out":-1,"leaf":[0,1]}]}`))
	for pos := 0; pos < len(good); pos++ {
		if pos >= 8 && pos < 12 {
			continue // model frame version field (see doc comment)
		}
		for _, mask := range []byte{0x01, 0x80} {
			bad := append([]byte(nil), good...)
			bad[pos] ^= mask
			if m, err := Read(bytes.NewReader(bad)); err == nil {
				t.Fatalf("bit flip at byte %d (mask %#x) of %d went undetected (model %v)", pos, mask, len(good), m != nil)
			}
		}
	}
}

// TestSectionTruncation sweeps truncation points through the section
// tail: every cut must error, except cuts exactly at a section boundary
// (which legitimately read as a sectionless or shorter file).
func TestSectionTruncation(t *testing.T) {
	base := sectionFile(t)
	full := sectionFile(t, retiredIndex(`{"count":9}`))
	if len(full) <= len(base) {
		t.Fatal("section added no bytes")
	}
	for cut := len(base) + 1; cut < len(full); cut++ {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at byte %d of %d went undetected", cut, len(full))
		}
	}
	// The boundary cut is the legitimate sectionless file.
	if _, err := Read(bytes.NewReader(full[:len(base)])); err != nil {
		t.Fatalf("boundary truncation should read as sectionless: %v", err)
	}
}

// TestEveryRetiredSectionVerified: with two sections, a corrupt byte in
// either refuses the file.
func TestEveryRetiredSectionVerified(t *testing.T) {
	one := sectionFile(t, retiredIndex("first"))
	two := sectionFile(t, retiredIndex("first"), retiredIndex("second"))
	if _, err := Read(bytes.NewReader(two)); err != nil {
		t.Fatalf("two intact sections: %v", err)
	}
	for _, pos := range []int{len(one) - 9, len(two) - 9} { // each section's last payload byte
		bad := append([]byte(nil), two...)
		bad[pos] ^= 0x01
		if _, err := Read(bytes.NewReader(bad)); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at byte %d: err = %v, want ErrChecksum", pos, err)
		}
	}
}

// TestSectionDeclaredLengthCap: an absurd declared length refuses fast,
// without allocating it.
func TestSectionDeclaredLengthCap(t *testing.T) {
	data := sectionFile(t, retiredIndex("x"))
	// The section header starts right after the model frame; find it by
	// magic scan from the end (the payload is tiny).
	idx := bytes.LastIndex(data, []byte(sectionMagic))
	if idx < 0 {
		t.Fatal("no section magic in file")
	}
	bad := append([]byte(nil), data...)
	binary.BigEndian.PutUint64(bad[idx+20:idx+28], 1<<62)
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("absurd declared length accepted")
	}
}

// TestRetiredSectionInflateBounded: a retired section is inflated to be
// verified, under the same bound as the model frame.
func TestRetiredSectionInflateBounded(t *testing.T) {
	data := sectionFile(t, retiredIndex(string(make([]byte, 1<<20))))
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("a section inflating about 1,000 times its stored length was accepted")
	}
}
