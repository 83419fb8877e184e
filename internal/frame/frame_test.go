package frame

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"runtime"
	"strings"
	"testing"
)

const testMagic = "IDATESTv"

func framed(t *testing.T, version uint32, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, testMagic, version, raw); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLayout pins the bytes Write produces: header fields, a gzipped
// payload, and an FNV-64a checksum of that payload.
func TestLayout(t *testing.T) {
	raw := []byte(`{"samples":[1,2,3]}`)
	data := framed(t, 3, raw)
	if string(data[:8]) != testMagic {
		t.Fatalf("magic %q", data[:8])
	}
	if v, f := binary.BigEndian.Uint32(data[8:12]), binary.BigEndian.Uint32(data[12:16]); v != 3 || f != FlagGzip {
		t.Fatalf("version %d, flags %#x; want 3 and gzip", v, f)
	}
	n := binary.BigEndian.Uint64(data[16:24])
	if uint64(len(data)) != 24+n+8 {
		t.Fatalf("declared length %d in a %d-byte frame", n, len(data))
	}
	payload := data[24 : 24+n]
	h := fnv.New64a()
	h.Write(payload)
	if got := binary.BigEndian.Uint64(data[24+n:]); got != h.Sum64() {
		t.Fatalf("stored checksum %016x, payload hashes to %016x", got, h.Sum64())
	}
	zr, err := gzip.NewReader(bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if back, err := io.ReadAll(zr); err != nil || !bytes.Equal(back, raw) {
		t.Fatalf("payload gunzips to %q, %v", back, err)
	}
}

// TestReadConsumesOneFrame: Read returns the payload and leaves the
// reader at the byte after the frame's checksum.
func TestReadConsumesOneFrame(t *testing.T) {
	data := append(framed(t, 1, []byte("first")), "tail"...)
	r := bytes.NewReader(data)
	raw, err := Read(r, testMagic, 1)
	if err != nil || string(raw) != "first" {
		t.Fatalf("Read = %q, %v", raw, err)
	}
	if rest, _ := io.ReadAll(r); string(rest) != "tail" {
		t.Fatalf("left %q unread, want the tail", rest)
	}
	// An uncompressed payload reads back as stored.
	plain := append([]byte(nil), data[:24]...)
	binary.BigEndian.PutUint32(plain[12:16], 0)
	binary.BigEndian.PutUint64(plain[16:24], 5)
	plain = append(plain, "plain"...)
	h := fnv.New64a()
	h.Write([]byte("plain"))
	plain = binary.BigEndian.AppendUint64(plain, h.Sum64())
	if raw, err := Read(bytes.NewReader(plain), testMagic, 1); err != nil || string(raw) != "plain" {
		t.Fatalf("uncompressed frame: %q, %v", raw, err)
	}
}

func TestReadRefusals(t *testing.T) {
	good := framed(t, 2, []byte(strings.Repeat("payload ", 20)))
	edit := func(f func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		f(b)
		return b
	}
	for _, tc := range []struct {
		name string
		data []byte
		want error // nil: any error
	}{
		{"newer version", edit(func(b []byte) { binary.BigEndian.PutUint32(b[8:12], 3) }), ErrNewerVersion},
		{"unknown flag bit", edit(func(b []byte) { b[15] |= 0x02 }), ErrNewerVersion},
		{"payload flip", edit(func(b []byte) { b[30] ^= 0x01 }), ErrChecksum},
		{"checksum flip", edit(func(b []byte) { b[len(b)-1] ^= 0x01 }), ErrChecksum},
		{"bad magic", edit(func(b []byte) { b[0] = 'X' }), nil},
		{"length over cap", edit(func(b []byte) { binary.BigEndian.PutUint64(b[16:24], MaxPayload+1) }), nil},
		{"truncated payload", good[:len(good)-9], nil},
		{"truncated checksum", good[:len(good)-1], nil},
		{"truncated header", good[:23], nil},
		{"empty", nil, nil},
	} {
		raw, err := Read(bytes.NewReader(tc.data), testMagic, 2)
		if err == nil || raw != nil {
			t.Errorf("%s: Read = %d bytes, %v; want a refusal", tc.name, len(raw), err)
			continue
		}
		if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestInflateBound: a payload may inflate to maxInflation times its
// stored length and no further, and a refused one is not inflated whole.
func TestInflateBound(t *testing.T) {
	zipped := func(raw []byte) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(raw)
		zw.Close()
		return buf.Bytes()
	}
	// Ordinary text stays far under the bound.
	var text []byte
	for i := 0; i < 500; i++ {
		text = fmt.Appendf(text, `{"t":%d,"best":%g},`, i, float64(i*i)/7)
	}
	if raw, err := Inflate(zipped(text)); err != nil || !bytes.Equal(raw, text) {
		t.Fatalf("ordinary payload: %d bytes, %v", len(raw), err)
	}
	// The bound is exact: find n zeros whose gzip stream is n/maxInflation
	// bytes long, then accept n and refuse n+1.
	n := 1
	for i := 0; len(zipped(make([]byte, n)))*maxInflation != n; i++ {
		if i == 10 {
			t.Fatal("found no run of zeros inflating exactly maxInflation times")
		}
		n = len(zipped(make([]byte, n))) * maxInflation
	}
	if _, err := Inflate(zipped(make([]byte, n))); err != nil {
		t.Fatalf("%d zeros from %d stored bytes: %v", n, n/maxInflation, err)
	}
	if over := zipped(make([]byte, n+1)); len(over)*maxInflation != n {
		t.Fatalf("%d zeros stored in %d bytes, not %d: pick another fixture", n+1, len(over), n/maxInflation)
	} else if _, err := Inflate(over); err == nil {
		t.Fatalf("%d zeros from %d stored bytes were accepted", n+1, len(over))
	}
	// One repeated byte compresses about 1,000 times.
	bomb := zipped(make([]byte, 4<<20))
	raw, err := Inflate(bomb)
	if err == nil {
		t.Fatalf("a %d-byte payload inflating to %d bytes was accepted", len(bomb), 4<<20)
	}
	if raw != nil {
		t.Fatal("refused payload returned bytes")
	}
	// Read applies the bound to every gzipped frame.
	if _, err := Read(bytes.NewReader(framed(t, 1, make([]byte, 4<<20))), testMagic, 1); err == nil {
		t.Fatal("Read accepted a frame past the inflate bound")
	}
}

// TestInflateSizesFromTrailer: a one-member stream, as Write produces,
// inflates into one buffer sized from its gzip trailer, allocating little
// more than the inflated bytes; a stream the trailer undercounts (several
// members, or a rewritten ISIZE) or overcounts still inflates exactly.
func TestInflateSizesFromTrailer(t *testing.T) {
	zipped := func(raw []byte) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write(raw)
		zw.Close()
		return buf.Bytes()
	}
	var text []byte
	for i := 0; len(text) < 1<<20; i++ {
		text = fmt.Appendf(text, `{"t":%d,"best":%g},`, i, float64(i*i)/7)
	}
	one := zipped(text)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	raw, err := Inflate(one)
	runtime.ReadMemStats(&after)
	if err != nil || !bytes.Equal(raw, text) {
		t.Fatalf("one member: %d bytes, %v", len(raw), err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(len(text))*3/2 {
		t.Errorf("inflating %d bytes allocated %d", len(text), alloc)
	}
	lying := func(isize uint32) []byte {
		z := append([]byte(nil), one...)
		binary.LittleEndian.PutUint32(z[len(z)-4:], isize)
		return z
	}
	for name, payload := range map[string][]byte{
		"two members":    append(zipped(text[:1000]), zipped(text[1000:])...),
		"small last":     append(zipped(text), zipped(nil)...),
		"ISIZE too low":  lying(7),
		"ISIZE too high": lying(1 << 31),
	} {
		raw, err := Inflate(payload)
		if strings.HasPrefix(name, "ISIZE") {
			// gzip verifies ISIZE after the data: a rewritten trailer is
			// refused, whatever buffer it sized.
			if err == nil {
				t.Errorf("%s: a stream with a rewritten trailer inflated", name)
			}
			continue
		}
		if err != nil || !bytes.Equal(raw, text) {
			t.Errorf("%s: %d bytes, %v; want the %d-byte text", name, len(raw), err, len(text))
		}
	}
}

func TestReadPayloadCoversHeaderFields(t *testing.T) {
	covered, payload := []byte("kind+version"), []byte("body")
	h := fnv.New64a()
	h.Write(covered)
	h.Write(payload)
	data := binary.BigEndian.AppendUint64(append([]byte(nil), payload...), h.Sum64())
	if got, err := ReadPayload(bytes.NewReader(data), 4, covered); err != nil || string(got) != "body" {
		t.Fatalf("ReadPayload = %q, %v", got, err)
	}
	if _, err := ReadPayload(bytes.NewReader(data), 4, []byte("kind+versioN")); !errors.Is(err, ErrChecksum) {
		t.Fatalf("changed covered bytes: err = %v, want ErrChecksum", err)
	}
}
