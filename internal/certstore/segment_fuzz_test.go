package certstore

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzReadSegment: a segment file is bytes a crash, a disk or another writer
// hands Open. Parsing never panics; a parse that succeeds accounts for its
// good prefix exactly (goodBytes within the input, torn exactly when bytes
// follow it, sum the SHA-256 of it), and re-reading that prefix alone yields
// the same certificates, untorn. When the input is a whole sealed segment,
// verifySealed accepts it under its manifest entry and refuses it with any
// one byte changed. Seeds: testdata/parent-store's segments and every
// truncation of them.
func FuzzReadSegment(f *testing.F) {
	for _, name := range []string{"seg-000000.log", "seg-000001.log", "seg-000002.log"} {
		raw, err := os.ReadFile(filepath.Join(fixtureDir, name))
		if err != nil {
			f.Fatal(err)
		}
		for n := 0; n <= len(raw); n++ {
			f.Add(raw[:n], uint16(n*7), byte(1))
		}
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, raw []byte, at uint16, flip byte) {
		scan, err := parseSegment("fuzz", raw)
		if err != nil {
			return
		}
		good := scan.goodBytes
		if good < int64(len(segmentMagic)) || good > int64(len(raw)) {
			t.Fatalf("goodBytes %d outside [%d, %d]", good, len(segmentMagic), len(raw))
		}
		if scan.torn != (good < int64(len(raw))) {
			t.Fatalf("torn = %v with %d good bytes of %d", scan.torn, good, len(raw))
		}
		if scan.sum != sha256.Sum256(raw[:good]) {
			t.Fatal("sum is not the SHA-256 of the good prefix")
		}
		again, err := parseSegment("fuzz", raw[:good])
		if err != nil {
			t.Fatalf("re-reading the good prefix: %v", err)
		}
		if again.torn || again.goodBytes != good || !reflect.DeepEqual(again.certs, scan.certs) {
			t.Fatalf("re-reading the good prefix: torn %v, %d good bytes, %d of %d certificates",
				again.torn, again.goodBytes, len(again.certs), len(scan.certs))
		}
		if scan.torn {
			return
		}

		meta := segmentMeta{Name: "seg.log", Bytes: good, Count: len(scan.certs), SHA256: hex.EncodeToString(scan.sum[:])}
		path := filepath.Join(dir, meta.Name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := verifySealed(dir, meta); err != nil {
			t.Fatalf("a whole segment fails its own manifest entry: %v", err)
		}
		if flip == 0 {
			flip = 0xff
		}
		bad := append([]byte(nil), raw...)
		bad[int(at)%len(bad)] ^= flip
		if err := os.WriteFile(path, bad, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := verifySealed(dir, meta); err == nil {
			t.Fatalf("byte %d xor %#x passed verifySealed", int(at)%len(bad), flip)
		}
	})
}
