// Package frame is the checksummed container every file this module
// persists travels in: predictor snapshots (internal/snapshot, magic
// "IDASNAPv") and training checkpoints (internal/checkpoint, magic
// "IDACKPTv"). A frame is
//
//	offset  size  field
//	0       8     magic (the caller's)
//	8       4     format version (big-endian uint32)
//	12      4     flags (bit 0: payload is gzip-compressed)
//	16      8     payload length in bytes (big-endian uint64)
//	24      n     payload (gzipped when flagged)
//	24+n    8     FNV-64a checksum of the payload bytes (big-endian)
//
// Compatibility rule: a reader accepts any version up to its own; a
// newer version, or a flag bit it does not know, fails with
// ErrNewerVersion rather than being half-understood. The checksum is
// verified before the payload is inflated or parsed, and inflation stops
// at 64 times the stored length, so neither a corrupt nor a hostile
// frame can make a reader allocate more than a small multiple of the
// bytes it was actually given.
package frame

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
)

const (
	// FlagGzip marks a gzip-compressed payload, the only flag defined.
	FlagGzip = 1 << 0

	// MaxPayload caps a declared payload length, so a corrupt header
	// fails on the cap instead of on a read it can never finish.
	MaxPayload = 8 << 30

	// maxInflation caps how many times its stored length a gzipped
	// payload may inflate to. Real snapshots and checkpoints inflate
	// about 5 to 7 times; a gzip stream of one repeated byte inflates
	// about 1,000 times.
	maxInflation = 64
)

// ErrNewerVersion is wrapped by readers when a frame was written by a
// newer format version, or sets flag bits this build does not know.
var ErrNewerVersion = errors.New("written by a newer format version")

// ErrChecksum is wrapped by readers when a payload does not match its
// stored checksum.
var ErrChecksum = errors.New("checksum mismatch")

// Write gzips raw and writes it to w in one frame under the given
// 8-byte magic and version.
func Write(w io.Writer, magic string, version uint32, raw []byte) error {
	var zbuf bytes.Buffer
	zw := gzip.NewWriter(&zbuf)
	if _, err := zw.Write(raw); err != nil {
		return fmt.Errorf("compress: %w", err)
	}
	if err := zw.Close(); err != nil {
		return fmt.Errorf("compress: %w", err)
	}
	payload := zbuf.Bytes()

	var head [24]byte
	copy(head[:8], magic)
	binary.BigEndian.PutUint32(head[8:12], version)
	binary.BigEndian.PutUint32(head[12:16], FlagGzip)
	binary.BigEndian.PutUint64(head[16:24], uint64(len(payload)))
	sum := binary.BigEndian.AppendUint64(nil, checksum(nil, payload))
	for _, b := range [][]byte{head[:], payload, sum} {
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("write: %w", err)
		}
	}
	return nil
}

// Read reads one frame from r and returns its payload, inflated. It
// checks the magic, the version against maxVersion and the flags first,
// then the checksum, and consumes exactly the frame's bytes.
func Read(r io.Reader, magic string, maxVersion uint32) ([]byte, error) {
	var head [24]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, fmt.Errorf("read header: %w", err)
	}
	if string(head[:8]) != magic {
		return nil, fmt.Errorf("bad magic %q, want %q", head[:8], magic)
	}
	if version := binary.BigEndian.Uint32(head[8:12]); version > maxVersion {
		return nil, fmt.Errorf("file version %d, this build reads <= %d: %w", version, maxVersion, ErrNewerVersion)
	}
	flags := binary.BigEndian.Uint32(head[12:16])
	if flags&^FlagGzip != 0 {
		// The header is outside the payload checksum; refusing unknown
		// bits (a future format's feature or a flipped header byte) beats
		// silently misreading either.
		return nil, fmt.Errorf("unknown flags %#x (corrupt header or newer format): %w", flags&^FlagGzip, ErrNewerVersion)
	}
	payload, err := ReadPayload(r, binary.BigEndian.Uint64(head[16:24]), nil)
	if err != nil || flags&FlagGzip == 0 {
		return payload, err
	}
	return Inflate(payload)
}

// ReadPayload reads an n-byte payload and the 8-byte FNV-64a checksum
// that follows it, and verifies that checksum over covered followed by
// the payload. covered is nil for a frame, whose checksum covers the
// payload alone; formats whose checksum also covers header fields pass
// those.
func ReadPayload(r io.Reader, n uint64, covered []byte) ([]byte, error) {
	if n > MaxPayload {
		return nil, fmt.Errorf("declared payload length %d exceeds the %d-byte cap", n, int64(MaxPayload))
	}
	// Grow the buffer as bytes actually arrive instead of trusting the
	// declared length up front: a corrupt header claiming gigabytes must
	// fail on the short read, not on the allocation.
	payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
	if err != nil {
		return nil, fmt.Errorf("read payload: %w", err)
	}
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("payload truncated: %d of %d declared bytes", len(payload), n)
	}
	var sum [8]byte
	if _, err := io.ReadFull(r, sum[:]); err != nil {
		return nil, fmt.Errorf("read checksum: %w", err)
	}
	if got, want := checksum(covered, payload), binary.BigEndian.Uint64(sum[:]); got != want {
		return nil, fmt.Errorf("payload hash %016x, stored %016x: %w", got, want, ErrChecksum)
	}
	return payload, nil
}

// Inflate gunzips a payload, refusing one that inflates past
// maxInflation times its stored length. It reads into one buffer sized
// from the gzip trailer's ISIZE, capped by that bound. ISIZE is the last
// gzip member's inflated length (mod 2^32), exact for the one-member
// streams Write produces; a stream that outgrows the buffer (several
// members, or a trailer that lies) grows once, straight to the bound.
func Inflate(payload []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("decompress: %w", err)
	}
	limit := int64(len(payload)) * maxInflation
	size := limit
	if n := len(payload); n >= 4 {
		size = min(int64(binary.LittleEndian.Uint32(payload[n-4:])), limit)
	}
	// One byte past the expected size, so a stream of exactly that size
	// reads to its end without growing.
	buf := make([]byte, size+1)
	n := 0
	for {
		m, err := io.ReadFull(zr, buf[n:])
		n += m
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("decompress: %w", err)
		}
		if int64(len(buf)) > limit {
			return nil, fmt.Errorf("decompress: payload inflates past %d times its %d stored bytes", maxInflation, len(payload))
		}
		grown := make([]byte, limit+1)
		copy(grown, buf)
		buf = grown
	}
	if err := zr.Close(); err != nil {
		return nil, fmt.Errorf("decompress: %w", err)
	}
	return buf[:n], nil
}

// checksum is FNV-64a over covered followed by payload.
func checksum(covered, payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(covered)
	h.Write(payload)
	return h.Sum64()
}
