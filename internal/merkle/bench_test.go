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

// BenchmarkConsistencyProofCold is the first proof a freshly grown tree
// serves: ctlogd's 60 000 seeded entries and 2 105 added since, asked for
// 60 000 → 62 105 as a replica's first round after the seed asks. Each
// iteration builds its tree with the timer stopped, so the time is the
// proof's alone, with nothing computed for an earlier one.
func BenchmarkConsistencyProofCold(b *testing.B) {
	_, leaves := buildTree(62105)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tr := &Tree{}
		for _, lh := range leaves {
			tr.AppendLeafHash(lh)
		}
		b.StartTimer()
		if _, err := tr.ConsistencyProof(60000, 62105); err != nil {
			b.Fatal(err)
		}
	}
}
