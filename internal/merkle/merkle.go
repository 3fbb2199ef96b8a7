// Package merkle implements the RFC 6962 Merkle hash tree that backs the
// Certificate Transparency log simulator: leaf/interior hashing with domain
// separation, signed-tree-head roots, and inclusion and consistency proofs
// with their verifiers.
//
// The tree is append-only. An append stores the root of every aligned perfect
// subtree it completes (amortised one hash per leaf, about two hashes of
// storage per leaf), so roots and proofs follow the recursive RFC 6962
// definitions over stored roots: O(log n) hashes for a root, at most
// O(log² n) for a proof, and neither writes to the tree.
package merkle

import (
	"crypto/sha256"
	"errors"
	"math/bits"
)

// Hash is a SHA-256 digest.
type Hash [32]byte

// LeafHash computes SHA-256(0x00 || data), the RFC 6962 leaf hash.
func LeafHash(data []byte) Hash {
	h := sha256.New()
	h.Write([]byte{0x00})
	h.Write(data)
	var out Hash
	h.Sum(out[:0])
	return out
}

// NodeHash computes SHA-256(0x01 || left || right), the interior-node hash.
func NodeHash(left, right Hash) Hash {
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(left[:])
	h.Write(right[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// EmptyRoot is the root of the empty tree: SHA-256 of the empty string.
func EmptyRoot() Hash { return sha256.Sum256(nil) }

// Tree is an append-only RFC 6962 Merkle tree. The zero value is an empty
// tree ready for use.
type Tree struct {
	// levels[h][i] is the root of the aligned perfect subtree of 2^h leaves
	// starting at leaf i·2^h: levels[0] holds the leaf hashes, and an append
	// stores each carry it computes. Stored roots never change, so reading
	// them needs no lock against other readers.
	levels [][]Hash
}

// Errors returned by proof generation.
var (
	ErrIndexOutOfRange = errors.New("merkle: leaf index out of range")
	ErrSizeOutOfRange  = errors.New("merkle: tree size out of range")
	ErrBadProofSizes   = errors.New("merkle: inconsistent proof sizes")
)

// Size returns the number of leaves.
func (t *Tree) Size() uint64 {
	if len(t.levels) == 0 {
		return 0
	}
	return uint64(len(t.levels[0]))
}

// AppendData hashes data as a leaf and appends it, returning its index.
func (t *Tree) AppendData(data []byte) uint64 {
	return t.AppendLeafHash(LeafHash(data))
}

// AppendLeafHash appends an already-hashed leaf, returning its index.
func (t *Tree) AppendLeafHash(lh Hash) uint64 {
	idx := t.Size()
	// Merge equal-sized perfect subtrees like binary counter carries.
	for h := 0; ; h++ {
		if h == len(t.levels) {
			t.levels = append(t.levels, nil)
		}
		t.levels[h] = append(t.levels[h], lh)
		n := len(t.levels[h])
		if n%2 == 1 {
			return idx
		}
		lh = NodeHash(t.levels[h][n-2], lh)
	}
}

// Root returns the current tree root (EmptyRoot for an empty tree).
func (t *Tree) Root() Hash {
	r, _ := t.RootAt(t.Size())
	return r
}

// RootAt returns the root of the tree as it was at the given size.
func (t *Tree) RootAt(size uint64) (Hash, error) {
	if size > t.Size() {
		return Hash{}, ErrSizeOutOfRange
	}
	if size == 0 {
		return EmptyRoot(), nil
	}
	return t.rootRange(0, size), nil
}

// rootRange computes MTH(D[start:start+size]): an aligned perfect subtree is
// a stored root, any other range splits at its largest power of two.
func (t *Tree) rootRange(start, size uint64) Hash {
	if size&(size-1) == 0 && start%size == 0 {
		h := bits.TrailingZeros64(size)
		return t.levels[h][start>>h]
	}
	k := largestPowerOfTwoBelow(size)
	return NodeHash(t.rootRange(start, k), t.rootRange(start+k, size-k))
}

// InclusionProof returns the RFC 6962 audit path for leaf index within the
// tree at the given size.
func (t *Tree) InclusionProof(index, size uint64) ([]Hash, error) {
	if size > t.Size() {
		return nil, ErrSizeOutOfRange
	}
	if index >= size {
		return nil, ErrIndexOutOfRange
	}
	return t.path(index, 0, size), nil
}

// path implements PATH(m, D[begin:begin+size]).
func (t *Tree) path(m, begin, size uint64) []Hash {
	if size <= 1 {
		return nil
	}
	k := largestPowerOfTwoBelow(size)
	if m < k {
		return append(t.path(m, begin, k), t.rootRange(begin+k, size-k))
	}
	return append(t.path(m-k, begin+k, size-k), t.rootRange(begin, k))
}

// ConsistencyProof returns the RFC 6962 consistency proof between the tree at
// size1 and the tree at size2 (size1 <= size2).
func (t *Tree) ConsistencyProof(size1, size2 uint64) ([]Hash, error) {
	if size2 > t.Size() {
		return nil, ErrSizeOutOfRange
	}
	if size1 > size2 {
		return nil, ErrBadProofSizes
	}
	if size1 == size2 || size1 == 0 {
		return nil, nil
	}
	return t.subProof(size1, 0, size2, true), nil
}

// subProof implements SUBPROOF(m, D[begin:begin+size], complete).
func (t *Tree) subProof(m, begin, size uint64, complete bool) []Hash {
	if m == size {
		if complete {
			return nil
		}
		return []Hash{t.rootRange(begin, size)}
	}
	k := largestPowerOfTwoBelow(size)
	if m <= k {
		return append(t.subProof(m, begin, k, complete), t.rootRange(begin+k, size-k))
	}
	return append(t.subProof(m-k, begin+k, size-k, false), t.rootRange(begin, k))
}

// VerifyInclusion checks an RFC 6962 inclusion proof: that leafHash is the
// leaf at index in the tree of the given size with the given root.
func VerifyInclusion(leafHash Hash, index, size uint64, proof []Hash, root Hash) bool {
	if index >= size {
		return false
	}
	fn, sn := index, size-1
	r := leafHash
	for _, p := range proof {
		if sn == 0 {
			return false
		}
		if fn&1 == 1 || fn == sn {
			r = NodeHash(p, r)
			for fn&1 == 0 && fn != 0 {
				fn >>= 1
				sn >>= 1
			}
		} else {
			r = NodeHash(r, p)
		}
		fn >>= 1
		sn >>= 1
	}
	return sn == 0 && r == root
}

// VerifyConsistency checks an RFC 6962 consistency proof between root1 at
// size1 and root2 at size2.
func VerifyConsistency(size1, size2 uint64, root1, root2 Hash, proof []Hash) bool {
	switch {
	case size1 > size2:
		return false
	case size1 == size2:
		return len(proof) == 0 && root1 == root2
	case size1 == 0:
		return len(proof) == 0
	}
	if len(proof) == 0 {
		return false
	}
	fn, sn := size1-1, size2-1
	for fn&1 == 1 {
		fn >>= 1
		sn >>= 1
	}
	var fr, cr Hash
	rest := proof
	if fn == 0 {
		// size1 is a power of two: old root is implicit first element.
		fr, cr = root1, root1
	} else {
		fr, cr = proof[0], proof[0]
		rest = proof[1:]
	}
	for _, p := range rest {
		if sn == 0 {
			return false
		}
		if fn&1 == 1 || fn == sn {
			fr = NodeHash(p, fr)
			cr = NodeHash(p, cr)
			for fn&1 == 0 && fn != 0 {
				fn >>= 1
				sn >>= 1
			}
		} else {
			cr = NodeHash(cr, p)
		}
		fn >>= 1
		sn >>= 1
	}
	return sn == 0 && fr == root1 && cr == root2
}

// largestPowerOfTwoBelow returns the largest power of two strictly less
// than n (n must be >= 2).
func largestPowerOfTwoBelow(n uint64) uint64 { return 1 << (bits.Len64(n-1) - 1) }
