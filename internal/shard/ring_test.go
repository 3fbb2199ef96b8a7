package shard

import (
	"fmt"
	"math"
	"testing"

	"stalecert/internal/psl"
	"stalecert/internal/x509sim"
)

// Two rings with the same shape must be identical, and lookups must be a
// pure function of the key — the property that lets every process in the
// fleet (N ingesters, the gateway, tests) derive placement independently.
func TestRingDeterministicAcrossConstructions(t *testing.T) {
	a := MustRing(5, 64)
	b := MustRing(5, 64)
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("d/domain%04d.com", i)
		if ga, gb := a.Lookup(key), b.Lookup(key); ga != gb {
			t.Fatalf("lookup %q: ring A says %d, ring B says %d", key, ga, gb)
		}
	}
}

// The hash construction is part of the wire contract (/v1/shardmap views
// and SHARD files carry HashName): pin a few placements so an accidental change to the hash
// or vnode naming shows up as a test failure, not as a silently re-partitioned
// fleet that can no longer find its own data.
func TestRingPlacementPinned(t *testing.T) {
	r := MustRing(4, 128)
	pinned := map[string]int{
		"d/example.com":        ringPin0,
		"d/site01.com":         ringPin1,
		"f/0123456789abcdef":   ringPin2,
		KeyForDomain("Av.GOV"): ringPin3,
	}
	for key, want := range pinned {
		if got := r.Lookup(key); got != want {
			t.Errorf("Lookup(%q) = %d, want pinned %d — the ring hash changed; "+
				"existing fleets would mis-route", key, got, want)
		}
	}
}

// Balance: with V vnodes per shard the max/mean shard load converges like
// 1/sqrt(V). At 10k keys over 4 shards with the default 128 vnodes, no shard
// may deviate from the mean by more than 25%.
func TestRingBalanceAt10kKeys(t *testing.T) {
	const (
		shards = 4
		keys   = 10000
	)
	r := MustRing(shards, DefaultVNodes)
	counts := make([]int, shards)
	for i := 0; i < keys; i++ {
		counts[r.Lookup(fmt.Sprintf("d/domain%05d.example", i))]++
	}
	mean := float64(keys) / shards
	for i, c := range counts {
		dev := math.Abs(float64(c)-mean) / mean
		if dev > 0.25 {
			t.Errorf("shard %d holds %d of %d keys (%.1f%% from the mean; counts %v)",
				i, c, keys, dev*100, counts)
		}
	}
}

// Growing the fleet N→N+1 must move only the slice the new shard takes over:
// ~1/(N+1) of the keys, every one of them moving TO the new shard. (A naive
// mod-N rehash would move (N-1)/N ≈ 80% and shuffle keys between surviving
// shards — the failure mode consistent hashing exists to avoid.)
func TestRingGrowthMovesMinimalKeys(t *testing.T) {
	const keys = 10000
	before := MustRing(4, DefaultVNodes)
	after := MustRing(5, DefaultVNodes)
	moved := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("d/domain%05d.example", i)
		was, is := before.Lookup(key), after.Lookup(key)
		if was == is {
			continue
		}
		moved++
		if is != 4 {
			t.Fatalf("key %q moved %d→%d; growth may only move keys to the new shard 4", key, was, is)
		}
	}
	frac := float64(moved) / keys
	if frac == 0 {
		t.Fatal("no keys moved to the new shard")
	}
	// Ideal is 1/5 = 20%; allow vnode jitter but nothing like a rehash.
	if frac > 0.30 {
		t.Errorf("growth 4→5 moved %.1f%% of keys, want ~20%% (and far below a rehash's 80%%)", frac*100)
	}
}

// A domain's certificates must co-route with the domain itself: the shard
// answering /v1/domain/{e2ld}/staleness is the shard the ingest filter
// stored the domain's certificates on.
func TestCertOwnersCoRouteWithDomain(t *testing.T) {
	const shards = 3
	r := MustRing(shards, DefaultVNodes)
	list := psl.Default()

	for i := 0; i < 50; i++ {
		domain := fmt.Sprintf("corouted%02d.com", i)
		cert, err := x509sim.New(x509sim.SerialNumber(i+1), 1, x509sim.KeyID(i+1),
			[]string{"www." + domain, domain}, 100, 500)
		if err != nil {
			t.Fatal(err)
		}
		owners := CertOwners(r, list, cert)
		want := r.Lookup(KeyForDomain(domain))
		if len(owners) != 1 || owners[0] != want {
			t.Fatalf("cert for %s owned by %v, domain routes to %d", domain, owners, want)
		}
		if !KeepFunc(Assignment{Index: want, Count: shards}, list)(cert) {
			t.Fatalf("KeepFunc(%d) rejected %s's certificate", want, domain)
		}
		for idx := 0; idx < shards; idx++ {
			if idx != want && KeepFunc(Assignment{Index: idx, Count: shards}, list)(cert) {
				t.Fatalf("KeepFunc(%d) kept %s's certificate owned by %d", idx, domain, want)
			}
		}
	}
}

// A certificate spanning several e2LDs is owned by every shard owning one of
// them — duplication, so each domain's history stays complete.
func TestCertOwnersMultiE2LD(t *testing.T) {
	r := MustRing(8, DefaultVNodes)
	list := psl.Default()
	cert, err := x509sim.New(1, 1, 1,
		[]string{"a.multi-one.com", "b.multi-two.org", "c.multi-three.net"}, 100, 500)
	if err != nil {
		t.Fatal(err)
	}
	owners := CertOwners(r, list, cert)
	want := map[int]bool{
		r.Lookup(KeyForDomain("multi-one.com")):   true,
		r.Lookup(KeyForDomain("multi-two.org")):   true,
		r.Lookup(KeyForDomain("multi-three.net")): true,
	}
	if len(owners) != len(want) {
		t.Fatalf("owners %v, want the %d distinct e2LD owners", owners, len(want))
	}
	for i, o := range owners {
		if !want[o] {
			t.Errorf("owner %d not an e2LD owner", o)
		}
		if i > 0 && owners[i-1] >= o {
			t.Errorf("owners %v not sorted unique", owners)
		}
	}
}

// Both fingerprint forms — 64-hex full and 16-hex short prefix — are one
// identity on the ring, and a cert with no registrable name still has a
// deterministic fingerprint-keyed home.
func TestFingerprintKeyNormalization(t *testing.T) {
	r := MustRing(7, DefaultVNodes)
	cert, err := x509sim.New(9, 1, 9, []string{"fpkey.example.com"}, 100, 500)
	if err != nil {
		t.Fatal(err)
	}
	fp := cert.Fingerprint()
	if KeyForFingerprint(fp.Hex()) != KeyForFingerprint(fp.String()) {
		t.Fatalf("full form key %q != short form key %q",
			KeyForFingerprint(fp.Hex()), KeyForFingerprint(fp.String()))
	}
	if r.Lookup(KeyForFingerprint(fp.Hex())) != r.Lookup(KeyForFingerprint(fp.String())) {
		t.Fatal("full and short fingerprint forms route to different shards")
	}

	// No registrable e2LD (bare public suffix): fingerprint fallback.
	bare, err := x509sim.New(10, 1, 10, []string{"com"}, 100, 500)
	if err != nil {
		t.Fatal(err)
	}
	owners := CertOwners(r, psl.Default(), bare)
	want := r.Lookup(KeyForFingerprint(bare.Fingerprint().Hex()))
	if len(owners) != 1 || owners[0] != want {
		t.Fatalf("bare-suffix cert owners %v, want fingerprint home %d", owners, want)
	}
}

func TestAssignmentParsing(t *testing.T) {
	a, err := ParseAssignment("2/5")
	if err != nil || a.Index != 2 || a.Count != 5 {
		t.Fatalf("ParseAssignment(2/5) = %+v, %v", a, err)
	}
	// 0/9000: 9 000 slices x DefaultVNodes is past the ring-point bound.
	for _, bad := range []string{"", "3", "5/5", "-1/3", "a/b", "1/0", "0/9000"} {
		if _, err := ParseAssignment(bad); err == nil {
			t.Errorf("ParseAssignment(%q) accepted", bad)
		}
	}
}
