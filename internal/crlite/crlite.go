// Package crlite implements a CRLite-style Bloom-filter cascade (Larisch et
// al., S&P 2017), the §7.2 mitigation candidate: the complete revocation
// status of a known certificate universe compressed into a few bits per
// revocation and shipped to clients, making revocation checking local — and
// therefore immune to the traffic-blocking interception that defeats
// soft-fail OCSP/CRL lookups.
//
// Build takes the revoked set and the not-revoked remainder of the universe
// and constructs a cascade: level 0 is a Bloom filter of the revoked set;
// level 1 holds the not-revoked keys that level 0 falsely matches; level 2
// holds the revoked keys level 1 falsely matches; and so on until no false
// positives remain. Queries walk the cascade; the first level that does not
// match decides. Results are exact for every key in the universe.
package crlite

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// bloom is a fixed-size Bloom filter with double hashing.
type bloom struct {
	bits   []uint64
	nbits  uint64
	hashes int
	level  int // salts the hash so levels are independent
}

func newBloom(n int, fpRate float64, level int) *bloom {
	if n < 1 {
		n = 1
	}
	// Standard sizing: m = -n ln p / (ln 2)^2, k = (m/n) ln 2.
	m := uint64(math.Ceil(-float64(n) * math.Log(fpRate) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := int(math.Round(float64(m) / float64(n) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 16 {
		k = 16
	}
	return &bloom{bits: make([]uint64, (m+63)/64), nbits: m, hashes: k, level: level}
}

// indices derives the k probe positions via double hashing over SHA-256.
func (b *bloom) indices(key []byte) (h1, h2 uint64) {
	var salt [4]byte
	binary.BigEndian.PutUint32(salt[:], uint32(b.level))
	sum := sha256.Sum256(append(salt[:], key...))
	h1 = binary.BigEndian.Uint64(sum[0:8])
	h2 = binary.BigEndian.Uint64(sum[8:16]) | 1 // odd, so probes cycle
	return h1, h2
}

func (b *bloom) add(key []byte) {
	h1, h2 := b.indices(key)
	for i := 0; i < b.hashes; i++ {
		pos := (h1 + uint64(i)*h2) % b.nbits
		b.bits[pos/64] |= 1 << (pos % 64)
	}
}

func (b *bloom) contains(key []byte) bool {
	h1, h2 := b.indices(key)
	for i := 0; i < b.hashes; i++ {
		pos := (h1 + uint64(i)*h2) % b.nbits
		if b.bits[pos/64]&(1<<(pos%64)) == 0 {
			return false
		}
	}
	return true
}

func (b *bloom) sizeBytes() int { return len(b.bits) * 8 }

// Filter is a built cascade.
type Filter struct {
	levels []*bloom
}

// Build errors.
var (
	ErrNoUniverse = errors.New("crlite: empty universe")
	ErrOverlap    = errors.New("crlite: a key appears as both revoked and valid")
	ErrDiverged   = errors.New("crlite: cascade failed to converge")
)

// Build constructs a cascade for the given revoked and valid key sets.
// fpRate tunes per-level filter sizing (0 uses the CRLite default of 0.5 for
// inner levels with a tighter first level).
func Build(revoked, valid [][]byte, fpRate float64) (*Filter, error) {
	if len(revoked) == 0 && len(valid) == 0 {
		return nil, ErrNoUniverse
	}
	seen := make(map[string]bool, len(revoked))
	for _, k := range revoked {
		seen[string(k)] = true
	}
	for _, k := range valid {
		if seen[string(k)] {
			return nil, fmt.Errorf("%w: %x", ErrOverlap, k)
		}
	}

	f := &Filter{}
	include, exclude := revoked, valid
	for level := 0; ; level++ {
		if len(include) == 0 {
			break
		}
		rate := fpRate
		if rate <= 0 || rate >= 1 {
			if level == 0 {
				// First level sized so the expected exception set is small
				// relative to the excluded side.
				rate = 1.0 / 64
			} else {
				rate = 0.5
			}
		}
		b := newBloom(len(include), rate, level)
		for _, k := range include {
			b.add(k)
		}
		f.levels = append(f.levels, b)

		// Keys on the excluded side that the filter wrongly matches become
		// the next level's include set.
		var falsePositives [][]byte
		for _, k := range exclude {
			if b.contains(k) {
				falsePositives = append(falsePositives, k)
			}
		}
		include, exclude = falsePositives, include
		if level > 64 {
			return nil, ErrDiverged
		}
	}
	return f, nil
}

// NumLevels returns the cascade depth.
func (f *Filter) NumLevels() int { return len(f.levels) }

// SizeBytes returns the total filter size.
func (f *Filter) SizeBytes() int {
	n := 0
	for _, b := range f.levels {
		n += b.sizeBytes()
	}
	return n
}
