package snapshot

import (
	"encoding/binary"
	"fmt"
	"io"

	"repro/internal/frame"
)

// Trailing sections are read-only: this build writes none, but earlier
// builds appended zero or more self-describing blocks after the model
// frame's checksum, each
//
//	offset  size  field
//	0       8     section magic "IDASECTv"
//	8       4     section kind (big-endian uint32)
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
// The only kind ever written is 1, retired: builds that searched through
// a vantage-point metric index appended the index there, version 1. A
// file that ends cleanly where a section would start is complete; a
// kind-1 section is verified (checksum, gzip, inflate bound) and
// discarded, so those snapshots keep loading. Any other kind, a newer
// version or unknown flag bits fail loudly with ErrNewerVersion — a newer
// writer produced something this build would half-understand. Anything
// else malformed — a truncated header, an overlong declared length, a
// checksum mismatch — is corruption and refuses to load.
const sectionMagic = "IDASECTv"

// skipSections verifies every trailing section up to EOF and discards
// it.
func skipSections(r io.Reader) error {
	for {
		var head [28]byte
		if _, err := io.ReadFull(r, head[:]); err == io.EOF {
			return nil
		} else if err != nil {
			return fmt.Errorf("snapshot: read section header: %w", err)
		}
		if string(head[:8]) != sectionMagic {
			return fmt.Errorf("snapshot: bad section magic %q (corrupt or foreign trailing data)", head[:8])
		}
		kind := binary.BigEndian.Uint32(head[8:12])
		version := binary.BigEndian.Uint32(head[12:16])
		flags := binary.BigEndian.Uint32(head[16:20])
		payload, err := frame.ReadPayload(r, binary.BigEndian.Uint64(head[20:28]), head[8:])
		if err != nil {
			return fmt.Errorf("snapshot: section %d: %w", kind, err)
		}
		switch {
		case kind != 1:
			return fmt.Errorf("snapshot: unknown section kind %d: %w", kind, ErrNewerVersion)
		case version > 1:
			return fmt.Errorf("snapshot: section %d version %d, this build reads <= 1: %w", kind, version, ErrNewerVersion)
		case flags&^frame.FlagGzip != 0:
			return fmt.Errorf("snapshot: section %d unknown flags %#x: %w", kind, flags&^frame.FlagGzip, ErrNewerVersion)
		case flags&frame.FlagGzip != 0:
			if _, err := frame.Inflate(payload); err != nil {
				return fmt.Errorf("snapshot: section %d: %w", kind, err)
			}
		}
	}
}
