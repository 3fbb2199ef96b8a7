package merkle

import (
	"fmt"
	"testing"
	"testing/quick"
)

// refMTH is an independent reference implementation of RFC 6962 MTH used to
// cross-check the incremental tree.
func refMTH(leaves []Hash) Hash {
	switch len(leaves) {
	case 0:
		return EmptyRoot()
	case 1:
		return leaves[0]
	}
	k := 1
	for k*2 < len(leaves) {
		k *= 2
	}
	return NodeHash(refMTH(leaves[:k]), refMTH(leaves[k:]))
}

func buildTree(n int) (*Tree, []Hash) {
	t := &Tree{}
	leaves := make([]Hash, n)
	for i := 0; i < n; i++ {
		lh := LeafHash([]byte(fmt.Sprintf("leaf-%d", i)))
		leaves[i] = lh
		t.AppendLeafHash(lh)
	}
	return t, leaves
}

func TestEmptyTree(t *testing.T) {
	tr := &Tree{}
	if tr.Size() != 0 {
		t.Fatal("empty tree size")
	}
	if tr.Root() != EmptyRoot() {
		t.Fatal("empty root mismatch")
	}
	r, err := tr.RootAt(0)
	if err != nil || r != EmptyRoot() {
		t.Fatal("RootAt(0)")
	}
}

func TestKnownRFC6962Vectors(t *testing.T) {
	// RFC 6962 test vector: the empty tree root is the SHA-256 of the empty
	// string.
	const wantEmpty = "e3b0c44298fc1c14"
	if got := EmptyRoot().String(); got != wantEmpty {
		t.Fatalf("empty root = %s, want %s", got, wantEmpty)
	}
	// Leaf hash of empty input, per RFC 6962 (H(0x00)).
	const wantLeaf = "6e340b9cffb37a98"
	if got := LeafHash(nil).String(); got != wantLeaf {
		t.Fatalf("leaf hash = %s, want %s", got, wantLeaf)
	}
}

func TestRootMatchesReference(t *testing.T) {
	for n := 0; n <= 130; n++ {
		tr, leaves := buildTree(n)
		if got, want := tr.Root(), refMTH(leaves); got != want {
			t.Fatalf("n=%d: incremental root %s != reference %s", n, got, want)
		}
	}
}

func TestRootAtMatchesReference(t *testing.T) {
	tr, leaves := buildTree(100)
	for size := 0; size <= 100; size++ {
		got, err := tr.RootAt(uint64(size))
		if err != nil {
			t.Fatal(err)
		}
		if want := refMTH(leaves[:size]); got != want {
			t.Fatalf("RootAt(%d) mismatch", size)
		}
	}
	if _, err := tr.RootAt(101); err != ErrSizeOutOfRange {
		t.Fatal("RootAt beyond size should fail")
	}
}

func TestInclusionProofsAllSizes(t *testing.T) {
	const maxN = 70
	tr, leaves := buildTree(maxN)
	for size := uint64(1); size <= maxN; size++ {
		root, _ := tr.RootAt(size)
		for idx := uint64(0); idx < size; idx++ {
			proof, err := tr.InclusionProof(idx, size)
			if err != nil {
				t.Fatal(err)
			}
			if !VerifyInclusion(leaves[idx], idx, size, proof, root) {
				t.Fatalf("inclusion proof failed idx=%d size=%d", idx, size)
			}
			// Wrong leaf must fail.
			if VerifyInclusion(LeafHash([]byte("evil")), idx, size, proof, root) {
				t.Fatalf("forged leaf verified idx=%d size=%d", idx, size)
			}
		}
	}
}

func TestInclusionProofErrors(t *testing.T) {
	tr, _ := buildTree(10)
	if _, err := tr.InclusionProof(10, 10); err != ErrIndexOutOfRange {
		t.Fatal("index out of range not rejected")
	}
	if _, err := tr.InclusionProof(0, 11); err != ErrSizeOutOfRange {
		t.Fatal("size out of range not rejected")
	}
}

func TestInclusionProofCorruption(t *testing.T) {
	tr, leaves := buildTree(37)
	root := tr.Root()
	proof, err := tr.InclusionProof(17, 37)
	if err != nil {
		t.Fatal(err)
	}
	for i := range proof {
		bad := append([]Hash(nil), proof...)
		bad[i][0] ^= 0xFF
		if VerifyInclusion(leaves[17], 17, 37, bad, root) {
			t.Fatalf("corrupted proof element %d verified", i)
		}
	}
	// Truncated and extended proofs must fail.
	if VerifyInclusion(leaves[17], 17, 37, proof[:len(proof)-1], root) {
		t.Fatal("truncated proof verified")
	}
	if VerifyInclusion(leaves[17], 17, 37, append(append([]Hash(nil), proof...), Hash{}), root) {
		t.Fatal("extended proof verified")
	}
}

func TestConsistencyProofsAllSizePairs(t *testing.T) {
	const maxN = 40
	tr, _ := buildTree(maxN)
	roots := make([]Hash, maxN+1)
	for i := 0; i <= maxN; i++ {
		roots[i], _ = tr.RootAt(uint64(i))
	}
	for s1 := uint64(0); s1 <= maxN; s1++ {
		for s2 := s1; s2 <= maxN; s2++ {
			proof, err := tr.ConsistencyProof(s1, s2)
			if err != nil {
				t.Fatal(err)
			}
			if !VerifyConsistency(s1, s2, roots[s1], roots[s2], proof) {
				t.Fatalf("consistency proof failed %d -> %d", s1, s2)
			}
		}
	}
}

func TestConsistencyRejectsForgedRoot(t *testing.T) {
	tr, _ := buildTree(33)
	r20, _ := tr.RootAt(20)
	r33, _ := tr.RootAt(33)
	proof, _ := tr.ConsistencyProof(20, 33)
	var evil Hash
	evil[0] = 1
	if VerifyConsistency(20, 33, evil, r33, proof) {
		t.Fatal("forged old root verified")
	}
	if VerifyConsistency(20, 33, r20, evil, proof) {
		t.Fatal("forged new root verified")
	}
	if VerifyConsistency(33, 20, r33, r20, proof) {
		t.Fatal("inverted sizes verified")
	}
}

func TestConsistencyProofErrors(t *testing.T) {
	tr, _ := buildTree(5)
	if _, err := tr.ConsistencyProof(3, 6); err != ErrSizeOutOfRange {
		t.Fatal("size beyond tree not rejected")
	}
	if _, err := tr.ConsistencyProof(4, 3); err != ErrBadProofSizes {
		t.Fatal("size1 > size2 not rejected")
	}
}

func TestAppendDataReturnsSequentialIndexes(t *testing.T) {
	tr := &Tree{}
	for i := 0; i < 10; i++ {
		if idx := tr.AppendData([]byte{byte(i)}); idx != uint64(i) {
			t.Fatalf("AppendData returned %d, want %d", idx, i)
		}
	}
}

func TestQuickInclusionRoundTrip(t *testing.T) {
	f := func(seed uint16, idxSeed uint16) bool {
		n := int(seed)%200 + 1
		tr, leaves := buildTree(n)
		idx := uint64(idxSeed) % uint64(n)
		proof, err := tr.InclusionProof(idx, uint64(n))
		if err != nil {
			return false
		}
		return VerifyInclusion(leaves[idx], idx, uint64(n), proof, tr.Root())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestQuickConsistencyRoundTrip(t *testing.T) {
	f := func(seed uint16, aSeed uint16) bool {
		n := int(seed)%200 + 1
		tr, _ := buildTree(n)
		s1 := uint64(aSeed) % uint64(n+1)
		r1, _ := tr.RootAt(s1)
		proof, err := tr.ConsistencyProof(s1, uint64(n))
		if err != nil {
			return false
		}
		return VerifyConsistency(s1, uint64(n), r1, tr.Root(), proof)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	tr := &Tree{}
	var buf [8]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf[0], buf[1] = byte(i), byte(i>>8)
		tr.AppendData(buf[:])
	}
}

func BenchmarkInclusionProof(b *testing.B) {
	tr, _ := buildTree(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.InclusionProof(uint64(i)%4096, 4096); err != nil {
			b.Fatal(err)
		}
	}
}
