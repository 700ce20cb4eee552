package pram

import (
	"bytes"
	"errors"
	"math/bits"
	"reflect"
	"testing"
)

// FuzzReadSnapshot holds the snapshot decoder to its contract on
// arbitrary bytes: it never panics, every rejection matches the
// ErrSnapshotFormat umbrella (so Resume fallbacks trigger), and any
// accepted input must set no packed bit at or past PackedLen and must
// survive a re-encode/decode round trip — a decoder that "succeeds" on
// garbage it cannot re-serialize would resume a run from fiction.
func FuzzReadSnapshot(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, sampleSnapshot()); err != nil {
		f.Fatalf("WriteSnapshot: %v", err)
	}
	good := buf.Bytes()
	f.Add(good)
	f.Add([]byte{})
	f.Add(good[:10])
	f.Add(good[:len(good)-3])
	flip := append([]byte(nil), good...)
	flip[25] ^= 1
	f.Add(flip)
	badVer := append([]byte(nil), good...)
	badVer[8] = 0x7F
	f.Add(badVer)
	f.Add(withPolicySlot(good, 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			if !errors.Is(err, ErrSnapshotFormat) {
				t.Fatalf("rejection %v does not match ErrSnapshotFormat", err)
			}
			return
		}
		for i, w := range s.PackedBits {
			if w != 0 && i*64+bits.Len64(w) > s.PackedLen {
				t.Fatalf("accepted snapshot sets packed bit %d of a %d-cell prefix", i*64+bits.Len64(w)-1, s.PackedLen)
			}
		}
		var out bytes.Buffer
		if err := WriteSnapshot(&out, s); err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		s2, err := ReadSnapshot(&out)
		if err != nil {
			t.Fatalf("re-encoded snapshot does not decode: %v", err)
		}
		if !reflect.DeepEqual(s, s2) {
			t.Fatalf("round trip diverges:\nfirst  %+v\nsecond %+v", s, s2)
		}
	})
}
