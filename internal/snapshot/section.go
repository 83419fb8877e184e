package snapshot

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
)

// Trailing sections extend the snapshot envelope without breaking old
// readers or old files: zero or more self-describing blocks follow the
// model payload's checksum, each
//
//	offset  size  field
//	0       8     section magic "IDASECTv"
//	8       4     section kind (big-endian uint32, registry below)
//	12      4     section version (big-endian uint32)
//	16      4     flags (bit 0: payload is gzip-compressed)
//	20      8     payload length in bytes (big-endian uint64)
//	28      n     payload (gzipped when flagged)
//	28+n    8     FNV-64a checksum of bytes 8..28+n — the kind, version,
//	              flags and length fields plus the payload (big-endian)
//
// The checksum covers the header fields, not just the payload: a bit
// flip in the version or flags field would otherwise read as a
// *different valid header* (version 1 → 0 still decodes) and load
// silently. Checksum verification therefore runs before the
// compatibility rules — a corrupt kind byte is reported as corruption,
// not mistaken for a newer writer.
//
// Compatibility rules mirror the envelope's: a file that ends cleanly
// where a section would start is a sectionless snapshot and loads fine
// (this build writes no sections; see SectionKNNIndex); an unknown
// section kind, a section version above the registry's, or unknown flag
// bits fail loudly with ErrNewerVersion — a newer writer produced
// something this build would half-understand. Anything else malformed —
// a truncated header, an overlong declared length, a checksum mismatch —
// is corruption and refuses to load. Old readers never get here at all:
// they stop after the model checksum without inspecting the tail, which
// is exactly why sections trail the envelope instead of living inside
// the model payload.
const sectionMagic = "IDASECTv"

// Section kinds. Kinds are never reused; retired kinds keep their number.
const (
	// SectionKNNIndex is retired. Earlier builds appended a vantage-point
	// metric index over Model.Samples in it; kNN search no longer uses
	// an index, so nothing writes it. It stays registered so that those
	// snapshots keep loading: Read verifies the section like any other,
	// then discards it.
	SectionKNNIndex uint32 = 1
)

// KNNIndexVersion is the newest SectionKNNIndex version earlier builds
// wrote.
const KNNIndexVersion uint32 = 1

// sectionVersions registers, per known kind, the newest version this
// build understands. Readers fail with ErrNewerVersion above it.
var sectionVersions = map[uint32]uint32{
	SectionKNNIndex: KNNIndexVersion,
}

// Section is one decoded trailing section: its registry kind, its
// version, and its raw (decompressed) payload bytes.
type Section struct {
	Kind    uint32
	Version uint32
	Payload []byte
}

// WriteSections writes the model envelope followed by the given trailing
// sections.
func WriteSections(w io.Writer, m *Model, secs ...Section) error {
	if err := Write(w, m); err != nil {
		return err
	}
	for _, s := range secs {
		if err := writeSection(w, s); err != nil {
			return err
		}
	}
	return nil
}

func writeSection(w io.Writer, s Section) error {
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(s.Payload); err != nil {
		return fmt.Errorf("snapshot: compress section %d: %w", s.Kind, err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("snapshot: compress section %d: %w", s.Kind, err)
	}
	payload := zbuf.Bytes()

	var head [28]byte
	copy(head[:8], sectionMagic)
	binary.BigEndian.PutUint32(head[8:12], s.Kind)
	binary.BigEndian.PutUint32(head[12:16], s.Version)
	binary.BigEndian.PutUint32(head[16:20], flagGzip)
	binary.BigEndian.PutUint64(head[20:28], uint64(len(payload)))
	if _, err := w.Write(head[:]); err != nil {
		return fmt.Errorf("snapshot: write section header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("snapshot: write section payload: %w", err)
	}
	h := fnv.New64a()
	h.Write(head[8:]) // kind, version, flags, length — see format comment
	h.Write(payload)
	var sum [8]byte
	binary.BigEndian.PutUint64(sum[:], h.Sum64())
	if _, err := w.Write(sum[:]); err != nil {
		return fmt.Errorf("snapshot: write section checksum: %w", err)
	}
	return nil
}

// ReadSections parses a snapshot envelope plus any trailing sections,
// fully validated (every section's header, length and checksum — a
// corrupt byte anywhere in the file refuses to load, whether or not the
// caller wants that section's content). A sectionless file returns the
// model and no sections.
func ReadSections(r io.Reader) (*Model, []Section, error) {
	m, err := readModel(r)
	if err != nil {
		return nil, nil, err
	}
	var secs []Section
	for {
		s, done, err := readSection(r)
		if err != nil {
			return nil, nil, err
		}
		if done {
			return m, secs, nil
		}
		secs = append(secs, s)
	}
}

// readSection reads one trailing section; done reports a clean EOF at a
// section boundary (the file's legitimate end).
func readSection(r io.Reader) (Section, bool, error) {
	var head [28]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if err == io.EOF {
			return Section{}, true, nil
		}
		return Section{}, false, fmt.Errorf("snapshot: read section header: %w", err)
	}
	if string(head[:8]) != sectionMagic {
		return Section{}, false, fmt.Errorf("snapshot: bad section magic %q (corrupt or foreign trailing data)", head[:8])
	}
	s := Section{
		Kind:    binary.BigEndian.Uint32(head[8:12]),
		Version: binary.BigEndian.Uint32(head[12:16]),
	}
	flags := binary.BigEndian.Uint32(head[16:20])
	n := binary.BigEndian.Uint64(head[20:28])
	if n > maxPayload {
		return Section{}, false, fmt.Errorf("snapshot: section %d declared payload length %d exceeds the %d-byte cap", s.Kind, n, int64(maxPayload))
	}
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return Section{}, false, fmt.Errorf("snapshot: read section payload: %w", err)
	}
	if uint64(len(payload)) != n {
		return Section{}, false, fmt.Errorf("snapshot: section %d payload truncated: %d of %d declared bytes", s.Kind, len(payload), n)
	}
	var sum [8]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return Section{}, false, fmt.Errorf("snapshot: read section checksum: %w", err)
	}
	// Checksum before compatibility: the sum covers the header fields, so
	// a flipped kind/version/flags/length byte reads as corruption here
	// rather than masquerading as a different valid header below.
	h := fnv.New64a()
	h.Write(head[8:])
	h.Write(payload)
	if got, want := h.Sum64(), binary.BigEndian.Uint64(sum[:]); got != want {
		return Section{}, false, fmt.Errorf("snapshot: section %d hash %016x, stored %016x: %w", s.Kind, got, want, ErrChecksum)
	}
	maxVersion, known := sectionVersions[s.Kind]
	if !known {
		return Section{}, false, fmt.Errorf("snapshot: unknown section kind %d: %w", s.Kind, ErrNewerVersion)
	}
	if s.Version > maxVersion {
		return Section{}, false, fmt.Errorf("snapshot: section %d version %d, this build reads <= %d: %w", s.Kind, s.Version, maxVersion, ErrNewerVersion)
	}
	if flags&^uint32(flagGzip) != 0 {
		return Section{}, false, fmt.Errorf("snapshot: section %d unknown flags %#x: %w", s.Kind, flags&^uint32(flagGzip), ErrNewerVersion)
	}
	if flags&flagGzip != 0 {
		zr, err := gzip.NewReader(bytes.NewReader(payload))
		if err != nil {
			return Section{}, false, fmt.Errorf("snapshot: decompress section %d: %w", s.Kind, err)
		}
		payload, err = io.ReadAll(zr)
		if err != nil {
			return Section{}, false, fmt.Errorf("snapshot: decompress section %d: %w", s.Kind, err)
		}
		if err := zr.Close(); err != nil {
			return Section{}, false, fmt.Errorf("snapshot: decompress section %d: %w", s.Kind, err)
		}
	}
	s.Payload = payload
	return s, false, nil
}
