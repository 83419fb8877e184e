package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// sectionFile writes a model plus the given sections and returns the
// bytes.
func sectionFile(t *testing.T, secs ...Section) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteSections(&buf, testModel(), secs...); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestSectionsRoundTrip(t *testing.T) {
	s1 := Section{Kind: SectionKNNIndex, Version: KNNIndexVersion, Payload: []byte(`{"count":3}`)}
	data := sectionFile(t, s1)
	m, secs, err := ReadSections(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("no model")
	}
	if len(secs) != 1 || secs[0].Kind != s1.Kind || secs[0].Version != s1.Version || !bytes.Equal(secs[0].Payload, s1.Payload) {
		t.Fatalf("sections = %+v, want %+v", secs, s1)
	}
}

func TestSectionlessFileReadsFine(t *testing.T) {
	data := sectionFile(t) // no sections: an old-format file
	m, secs, err := ReadSections(bytes.NewReader(data))
	if err != nil || m == nil || len(secs) != 0 {
		t.Fatalf("sectionless read = (%v, %v, %v), want model and no sections", m != nil, secs, err)
	}
	// The sectionless Read path sees the same bytes.
	if m2, err := Read(bytes.NewReader(data)); err != nil || m2 == nil {
		t.Fatalf("Read on sectionless file = (%v, %v)", m2 != nil, err)
	}
}

// TestReadValidatesSectionsItDiscards: the whole-file validation contract
// — Read (which ignores section content) must still refuse a file whose
// trailing section is corrupt.
func TestReadValidatesSectionsItDiscards(t *testing.T) {
	data := sectionFile(t, Section{Kind: SectionKNNIndex, Version: KNNIndexVersion, Payload: []byte(`{"count":1}`)})
	bad := append([]byte(nil), data...)
	bad[len(bad)-12] ^= 0x01 // inside the section payload/checksum tail
	if _, err := Read(bytes.NewReader(bad)); err == nil {
		t.Fatal("Read accepted a file with a corrupt trailing section")
	}
}

func TestSectionUnknownKindIsNewerVersion(t *testing.T) {
	// A future writer emits a kind this build has never heard of, with a
	// correctly computed checksum — the loud, typed refusal.
	data := sectionFile(t)
	var buf bytes.Buffer
	buf.Write(data)
	future := Section{Kind: 999, Version: 1, Payload: []byte("future payload")}
	if err := writeSectionForTest(&buf, future); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadSections(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrNewerVersion) {
		t.Fatalf("unknown kind err = %v, want ErrNewerVersion", err)
	}
}

func TestSectionNewerVersionRefused(t *testing.T) {
	data := sectionFile(t)
	var buf bytes.Buffer
	buf.Write(data)
	newer := Section{Kind: SectionKNNIndex, Version: KNNIndexVersion + 1, Payload: []byte("v2 payload")}
	if err := writeSectionForTest(&buf, newer); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadSections(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrNewerVersion) {
		t.Fatalf("newer version err = %v, want ErrNewerVersion", err)
	}
}

// writeSectionForTest mirrors the production writer so tests can emit
// sections the production writer refuses to (unknown kinds, future
// versions) with valid checksums.
func writeSectionForTest(buf *bytes.Buffer, s Section) error {
	return writeSection(buf, s)
}

// TestSectionBitFlipSweep extends the envelope's single-bit corruption
// sweep over a section-bearing file: every flipped bit — section header
// fields, payload, checksum, and the model envelope apart from its
// version field — must refuse to load. The section checksum covers its
// header fields precisely so a version or flags flip cannot read as a
// different valid header; the model envelope's version field predates
// that hardening (its checksum covers only the payload, and a 1 → 0
// version flip still satisfies the <= Version compatibility rule), so it
// is the one region excluded here.
func TestSectionBitFlipSweep(t *testing.T) {
	payload := []byte(`{"leaf_size":8,"count":2,"root":0,"nodes":[{"v":-1,"in":-1,"out":-1,"leaf":[0,1]}]}`)
	good := sectionFile(t, Section{Kind: SectionKNNIndex, Version: KNNIndexVersion, Payload: payload})
	for pos := 0; pos < len(good); pos++ {
		if pos >= 8 && pos < 12 {
			continue // model envelope version field (see doc comment)
		}
		for _, mask := range []byte{0x01, 0x80} {
			bad := append([]byte(nil), good...)
			bad[pos] ^= mask
			if m, err := Read(bytes.NewReader(bad)); err == nil {
				t.Fatalf("bit flip at byte %d (mask %#x) of %d went undetected (model %v)", pos, mask, len(good), m != nil)
			}
			if _, _, err := ReadSections(bytes.NewReader(bad)); err == nil {
				t.Fatalf("ReadSections: bit flip at byte %d (mask %#x) went undetected", pos, mask)
			}
		}
	}
}

// TestSectionTruncation sweeps truncation points through the section
// tail: every cut must error, except cuts exactly at a section boundary
// (which legitimately read as a sectionless or shorter file).
func TestSectionTruncation(t *testing.T) {
	base := sectionFile(t)
	full := sectionFile(t, Section{Kind: SectionKNNIndex, Version: KNNIndexVersion, Payload: []byte(`{"count":9}`)})
	if len(full) <= len(base) {
		t.Fatal("section added no bytes")
	}
	for cut := len(base) + 1; cut < len(full); cut++ {
		if _, _, err := ReadSections(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at byte %d of %d went undetected", cut, len(full))
		}
	}
	// The boundary cut is the legitimate old-format file.
	if _, _, err := ReadSections(bytes.NewReader(full[:len(base)])); err != nil {
		t.Fatalf("boundary truncation should read as sectionless: %v", err)
	}
}

// TestMultipleSectionsPreserveOrder: sections read back in write order.
func TestMultipleSectionsPreserveOrder(t *testing.T) {
	a := Section{Kind: SectionKNNIndex, Version: 1, Payload: []byte("first")}
	b := Section{Kind: SectionKNNIndex, Version: 1, Payload: []byte("second")}
	data := sectionFile(t, a, b)
	_, secs, err := ReadSections(bytes.NewReader(data))
	if err != nil || len(secs) != 2 {
		t.Fatalf("read = (%v, %v)", secs, err)
	}
	if string(secs[0].Payload) != "first" || string(secs[1].Payload) != "second" {
		t.Fatalf("order lost: %q, %q", secs[0].Payload, secs[1].Payload)
	}
}

// TestSectionDeclaredLengthCap: an absurd declared length refuses fast,
// without allocating it.
func TestSectionDeclaredLengthCap(t *testing.T) {
	data := sectionFile(t, Section{Kind: SectionKNNIndex, Version: KNNIndexVersion, Payload: []byte("x")})
	// The section header starts right after the base envelope; find it by
	// magic scan from the end (the payload is tiny).
	idx := bytes.LastIndex(data, []byte(sectionMagic))
	if idx < 0 {
		t.Fatal("no section magic in file")
	}
	bad := append([]byte(nil), data...)
	binary.BigEndian.PutUint64(bad[idx+20:idx+28], 1<<62)
	if _, _, err := ReadSections(bytes.NewReader(bad)); err == nil {
		t.Fatal("absurd declared length accepted")
	}
}
