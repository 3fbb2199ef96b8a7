package shard

import "testing"

// BenchmarkOwner is the gateway's routing decision for one domain request
// (shard.owner_ns): the ring key, then the owning slice of a two-slice ring.
func BenchmarkOwner(b *testing.B) {
	r := MustRing(2, DefaultVNodes)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Lookup(KeyForDomain("rig00007.com"))
	}
}

// TestOwnerAllocCeiling caps BenchmarkOwner one above what it costs today
// (the ring key's one string), with or without -race.
func TestOwnerAllocCeiling(t *testing.T) {
	r := MustRing(2, DefaultVNodes)
	if got := testing.AllocsPerRun(1000, func() { r.Lookup(KeyForDomain("rig00007.com")) }); got > 2 {
		t.Errorf("one routing decision allocates %.0f times, ceiling 2", got)
	}
}
