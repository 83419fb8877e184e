package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/distance"
)

// FuzzReadSnapshot drives Read with hostile bytes: truncations, bit
// flips, header rewrites, random garbage. The contract under fuzz is
// narrow and absolute — Read returns (*Model, nil) or (nil, error),
// and it never panics, never hangs, never allocates the declared (vs
// actual) payload size. Every acceptance maps to a well-formed
// envelope; every corruption lands in one of the typed failure classes
// (ErrChecksum, ErrNewerVersion) or a decode error.
func FuzzReadSnapshot(f *testing.F) {
	// Seed with a real snapshot and the mutation classes the unit test
	// pins, so the fuzzer starts at the interesting boundaries.
	var buf bytes.Buffer
	if err := Write(&buf, testModel()); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	f.Add(good)
	for _, cut := range []int{0, 7, 8, 23, 24, len(good) - 9, len(good) - 1} {
		if cut >= 0 && cut <= len(good) {
			f.Add(good[:cut])
		}
	}
	flip := append([]byte(nil), good...)
	flip[len(flip)/2] ^= 0x10
	f.Add(flip)
	newer := append([]byte(nil), good...)
	binary.BigEndian.PutUint32(newer[8:12], Version+1)
	f.Add(newer)
	f.Add([]byte("NOTASNAPxxxxxxxxxxxxxxxxxxxxxxxx"))
	f.Add([]byte{})

	// Section-bearing seeds: Read validates trailing sections even though
	// it discards their content, so the same invariant holds over the
	// extended format. Seed the section header boundaries and a flip in
	// the section's checksummed region (header fields + payload).
	withSec := sectionFile(f, retiredIndex(`{"count":2}`))
	f.Add(withSec)
	for _, cut := range []int{len(good) + 1, len(good) + 8, len(good) + 28, len(withSec) - 9, len(withSec) - 1} {
		if cut >= 0 && cut <= len(withSec) {
			f.Add(withSec[:cut])
		}
	}
	secFlip := append([]byte(nil), withSec...)
	secFlip[len(good)+9] ^= 0x01 // inside the section kind field
	f.Add(secFlip)

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Read(bytes.NewReader(data))
		if (m == nil) == (err == nil) {
			t.Fatalf("Read returned model=%v err=%v; exactly one must be set", m != nil, err)
		}
		if err == nil && !bytes.Equal(data[:8], good[:8]) {
			t.Fatal("Read accepted bytes without the snapshot magic")
		}
	})
}

// TestReadCorruptionClasses sweeps every byte position of a real
// snapshot with a single bit flip and asserts each lands in a typed
// failure class (or, for flips inside the unverified header length
// field, any error) — never a panic, and never a silent success.
func TestReadCorruptionClasses(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, testModel()); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for pos := 0; pos < len(good); pos++ {
		bad := append([]byte(nil), good...)
		bad[pos] ^= 0x04
		m, err := Read(bytes.NewReader(bad))
		if err == nil {
			t.Fatalf("bit flip at byte %d of %d went undetected (model %v)", pos, len(good), m != nil)
		}
		switch {
		case errors.Is(err, ErrChecksum), errors.Is(err, ErrNewerVersion):
		case pos < 24 || pos >= len(good)-8:
			// Header or trailing-checksum flips may surface as magic,
			// version, length or checksum errors — any typed refusal is
			// acceptable; reaching here means err != nil already.
		default:
			// Payload flips must be caught by the checksum before JSON
			// ever parses.
			t.Fatalf("payload flip at byte %d: err = %v, want ErrChecksum", pos, err)
		}
	}
}

// FuzzDecodeWireContext drives the two context decodes behind
// /v1/predict, /v1/predict/batch and /v1/knn/candidates with hostile
// bodies: the one-pass Reader and its reference, JSON then CheckContext
// then DecodeContext. Whatever the reader accepts, the reference accepts
// too and decodes to the same context, compared as canonical JSON, which
// pins ids, steps, actions, histogram keys and weight bits. Every context
// the reference accepts must be one the scan can measure without
// panicking: its tree-edit distance to itself and to a fixed context
// lies in [0, 1], and an encode/decode round trip leaves the distance to
// the fixed context bit-identical.
func FuzzDecodeWireContext(f *testing.F) {
	good, err := json.Marshal(EncodeContext(miniContext("q", 3, miniDisplay(40, 2), miniDisplay(9, 3)), nil))
	if err != nil {
		f.Fatal(err)
	}
	oversized, err := json.Marshal(&WireContext{Root: &WireNode{Step: 1, Display: wideDisplay(maxTopFreqKeys + 1)}})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{string(good), `{"root":{"step":1,"children":[null]}}`,
		`{"root":{"action":{"type":"nope"}}}`, `{"root":{"ref":2}}`, `{}`, `null`, string(oversized)} {
		f.Add([]byte(seed))
	}
	for _, seed := range declineSeeds(f) {
		f.Add([]byte(seed))
	}
	for _, c := range readerContexts() {
		for _, form := range canonicalForms(f, c) {
			f.Add(form)
		}
	}
	fixed := miniContext("fixed", 2, miniDisplay(50, 0), miniDisplay(7, 1))
	m := distance.TreeEdit{}
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, ok := readOne(data, readCap); ok {
			ref, err := reference(data, readCap)
			if err != nil {
				t.Fatalf("the reader accepted what the reference refuses (%v): %q", err, data)
			}
			if !sameContext(t, c, ref) {
				t.Fatalf("the reader and the reference disagree on %q:\nreader    %s %v\nreference %s %v",
					data, encoded(t, c), histograms(c), encoded(t, ref), histograms(ref))
			}
		}
		var wc *WireContext
		if json.Unmarshal(data, &wc) != nil {
			return
		}
		c, err := DecodeContext(wc, nil)
		// The distance program is quadratic in tree size; large trees
		// only slow the fuzzer down without reaching new decoder states.
		if err != nil || len(c.Nodes()) > 64 {
			return
		}
		for _, n := range c.Nodes() {
			if n.Display == nil {
				continue
			}
			for i := range n.Display.GetProfile().Columns {
				if keys := len(n.Display.GetProfile().TopFreq(i).Keys); keys > maxTopFreqKeys {
					t.Fatalf("accepted a %d-key histogram, over the %d-key cap", keys, maxTopFreqKeys)
				}
			}
		}
		d, self := m.Distance(c, fixed), m.Distance(c, c)
		if !(d >= 0 && d <= 1 && self >= 0 && self <= 1) {
			t.Fatalf("distances %v (fixed), %v (self) outside [0, 1] for %s", d, self, data)
		}
		back, err := DecodeContext(EncodeContext(c, nil), nil)
		if err != nil {
			t.Fatalf("re-encoded context fails to decode: %v", err)
		}
		if rd := m.Distance(back, fixed); math.Float64bits(rd) != math.Float64bits(d) {
			t.Fatalf("distance drifted through a round trip: %v -> %v", d, rd)
		}
	})
}

// wideDisplay is a one-column wire display whose histogram has keys keys.
func wideDisplay(keys int) *WireDisplay {
	top := make(map[string]float64, keys)
	for i := 0; i < keys; i++ {
		top[fmt.Sprint("v", i)] = 1 / float64(keys)
	}
	return &WireDisplay{Rows: keys, Columns: []WireColumn{{Name: "port", TopFreq: top}}}
}

// TestDecodeRejectsOversizedHistogram: a column histogram at the
// TopFreqLimit+1 cap decodes; one key more is refused by DecodeDisplay,
// by DecodeContext for an inline display and by Read for a pooled one,
// which also refuses a null pool entry.
func TestDecodeRejectsOversizedHistogram(t *testing.T) {
	if _, err := DecodeDisplay(wideDisplay(maxTopFreqKeys)); err != nil {
		t.Fatalf("a %d-key column: %v", maxTopFreqKeys, err)
	}
	if _, err := DecodeDisplay(wideDisplay(maxTopFreqKeys + 1)); err == nil {
		t.Fatalf("a %d-key column decoded", maxTopFreqKeys+1)
	}
	inline := &WireContext{SessionID: "q", Root: &WireNode{Step: 1, Display: wideDisplay(maxTopFreqKeys + 1)}}
	if _, err := DecodeContext(inline, nil); err == nil {
		t.Fatal("a context with an oversized inline display decoded")
	}
	for name, pool := range map[string][]*WireDisplay{
		"oversized": {wideDisplay(maxTopFreqKeys + 1)},
		"null":      {nil},
	} {
		m := testModel()
		m.Displays = append(m.Displays, pool...)
		var buf bytes.Buffer
		if err := Write(&buf, m); err != nil {
			t.Fatal(err)
		}
		if _, err := Read(&buf); err == nil {
			t.Errorf("Read accepted a model whose pool holds a %s display", name)
		}
	}
}
