package merkle

import "testing"

// BenchmarkVerifyConsistency is the check an ingester runs when the log's
// head has grown (merkle.verify_consistency_us): a 5 000 → 10 000 proof.
func BenchmarkVerifyConsistency(b *testing.B) {
	tr, _ := buildTree(10000)
	old, err := tr.RootAt(5000)
	if err != nil {
		b.Fatal(err)
	}
	proof, err := tr.ConsistencyProof(5000, 10000)
	if err != nil {
		b.Fatal(err)
	}
	root := tr.Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !VerifyConsistency(5000, 10000, old, root, proof) {
			b.Fatal("proof does not verify")
		}
	}
}

// TestVerifyConsistencyAllocCeiling: BenchmarkVerifyConsistency's check
// allocates nothing today, with or without -race, and the ceiling keeps it
// so.
func TestVerifyConsistencyAllocCeiling(t *testing.T) {
	tr, _ := buildTree(10000)
	old, err := tr.RootAt(5000)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := tr.ConsistencyProof(5000, 10000)
	if err != nil {
		t.Fatal(err)
	}
	root := tr.Root()
	if got := testing.AllocsPerRun(200, func() { VerifyConsistency(5000, 10000, old, root, proof) }); got > 0 {
		t.Errorf("a 5 000 -> 10 000 consistency check allocates %.0f times, ceiling 0", got)
	}
}
