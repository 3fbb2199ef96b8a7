package crlite

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// IsRevoked is the lookup a relying party runs against the cascade, the
// oracle every test holds a filter to; the reproduction ships only Build and
// the size accounting. Keys outside the build universe get a best-effort
// (Bloom-probabilistic) answer, as in real CRLite, where the filter is
// rebuilt as the universe changes.
func (f *Filter) IsRevoked(key []byte) bool {
	for i, b := range f.levels {
		if !b.contains(key) {
			// Not matched at level i: the key belongs to the side excluded
			// at this level. Even levels include revoked keys.
			return i%2 == 1
		}
	}
	// Matched every level: classified by the deepest level's side.
	return len(f.levels)%2 == 1
}

func keys(prefix byte, n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		k := make([]byte, 9)
		k[0] = prefix
		binary.BigEndian.PutUint64(k[1:], uint64(i))
		out[i] = k
	}
	return out
}

func TestBuildExactWithinUniverse(t *testing.T) {
	revoked := keys('r', 500)
	valid := keys('v', 20_000)
	f, err := Build(revoked, valid, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range revoked {
		if !f.IsRevoked(k) {
			t.Fatalf("false negative for revoked key %x", k)
		}
	}
	for _, k := range valid {
		if f.IsRevoked(k) {
			t.Fatalf("false positive for valid key %x", k)
		}
	}
}

func TestBuildEdgeCases(t *testing.T) {
	if _, err := Build(nil, nil, 0); err != ErrNoUniverse {
		t.Fatalf("empty universe: %v", err)
	}
	// All revoked, nothing valid.
	f, err := Build(keys('r', 10), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys('r', 10) {
		if !f.IsRevoked(k) {
			t.Fatal("all-revoked filter missed a key")
		}
	}
	// Nothing revoked.
	f2, err := Build(nil, keys('v', 10), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range keys('v', 10) {
		if f2.IsRevoked(k) {
			t.Fatal("empty-revocation filter flagged a key")
		}
	}
	if f2.NumLevels() != 0 {
		t.Fatalf("empty cascade has %d levels", f2.NumLevels())
	}
}

func TestBuildRejectsOverlap(t *testing.T) {
	shared := [][]byte{[]byte("same-key")}
	if _, err := Build(shared, shared, 0); err == nil {
		t.Fatal("overlapping sets accepted")
	}
}

func TestCompressionBeatsExplicitList(t *testing.T) {
	revoked := keys('r', 2000)
	valid := keys('v', 100_000)
	f, err := Build(revoked, valid, 0)
	if err != nil {
		t.Fatal(err)
	}
	explicit := len(revoked) * 9 // bytes for the raw serial list
	if f.SizeBytes() >= explicit*2 {
		t.Fatalf("cascade %dB vs explicit list %dB — no compression win", f.SizeBytes(), explicit)
	}
	t.Logf("cascade: %d levels, %dB for %d revocations in a %d-cert universe",
		f.NumLevels(), f.SizeBytes(), len(revoked), len(revoked)+len(valid))
	if f.NumLevels() < 1 {
		t.Fatal("no levels built")
	}
}

func TestQuickCascadeExact(t *testing.T) {
	f := func(seed int64, nRev, nVal uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		nr := int(nRev)%200 + 1
		nv := int(nVal)%2000 + 1
		seen := map[string]bool{}
		mk := func(n int) [][]byte {
			out := make([][]byte, 0, n)
			for len(out) < n {
				k := make([]byte, 8)
				binary.BigEndian.PutUint64(k, rng.Uint64())
				if seen[string(k)] {
					continue
				}
				seen[string(k)] = true
				out = append(out, k)
			}
			return out
		}
		revoked, valid := mk(nr), mk(nv)
		filter, err := Build(revoked, valid, 0)
		if err != nil {
			return false
		}
		for _, k := range revoked {
			if !filter.IsRevoked(k) {
				return false
			}
		}
		for _, k := range valid {
			if filter.IsRevoked(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCascadeQuery(b *testing.B) {
	revoked := keys('r', 2000)
	valid := keys('v', 100_000)
	f, err := Build(revoked, valid, 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := valid[i%len(valid)]
		if f.IsRevoked(k) {
			b.Fatal("false positive")
		}
	}
}

func BenchmarkCascadeBuild(b *testing.B) {
	revoked := keys('r', 1000)
	valid := keys('v', 50_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Build(revoked, valid, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func ExampleBuild() {
	revoked := [][]byte{[]byte("cert-1"), []byte("cert-2")}
	valid := [][]byte{[]byte("cert-3"), []byte("cert-4"), []byte("cert-5")}
	f, _ := Build(revoked, valid, 0)
	fmt.Println(f.IsRevoked([]byte("cert-1")), f.IsRevoked([]byte("cert-3")))
	// Output: true false
}
