package incident

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzIncidentDecode decodes arbitrary bytes as a bundle, both as given
// and with the CRC trailer recomputed so mutations reach the payload
// parser. Decode must never panic, and every bundle that decodes must
// survive Encode and decode back to itself.
func FuzzIncidentDecode(f *testing.F) {
	paths, err := filepath.Glob(filepath.Join(corpusDir(), "*"+BundleExt))
	if err != nil {
		f.Fatal(err)
	}
	if len(paths) == 0 {
		f.Fatal("no corpus bundles to seed from")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRoundTrip(t, data)
		if len(data) >= 10 {
			fixed := append([]byte(nil), data...)
			body := fixed[6 : len(fixed)-4]
			binary.LittleEndian.PutUint32(fixed[len(fixed)-4:], crc32.ChecksumIEEE(body))
			checkRoundTrip(t, fixed)
		}
	})
}

// checkRoundTrip fails unless data either does not decode or decodes to
// a bundle b with Decode(Encode(b)) equal to b.
func checkRoundTrip(t *testing.T, data []byte) {
	t.Helper()
	b, err := Decode(data)
	if err != nil {
		return
	}
	enc, err := Encode(b)
	if err != nil {
		t.Fatalf("decoded bundle does not encode: %v", err)
	}
	again, err := Decode(enc)
	if err != nil {
		t.Fatalf("re-encoded bundle does not decode: %v", err)
	}
	// Compared as printed: %v gives every float its shortest exact form,
	// and unlike reflect.DeepEqual it counts a NaN (a digest decision can
	// hold any bits) as equal to itself.
	if got, want := fmt.Sprintf("%+v", again), fmt.Sprintf("%+v", b); got != want {
		t.Fatalf("Decode(Encode(b)) differs from b:\n got %s\nwant %s", got, want)
	}
}
