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
