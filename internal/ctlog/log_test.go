package ctlog

import (
	"errors"
	"sync"
	"testing"

	"stalecert/internal/merkle"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// RootAt returns the Merkle root at an earlier size, the oracle the
// consistency tests check proofs against.
func (l *Log) RootAt(size uint64) (merkle.Hash, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.tree.RootAt(size)
}

func testCert(t *testing.T, serial uint64, name string, nb, na simtime.Day) *x509sim.Certificate {
	t.Helper()
	c, err := x509sim.New(x509sim.SerialNumber(serial), 1, x509sim.KeyID(serial), []string{name}, nb, na)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestAddChainAndSTH(t *testing.T) {
	l := New("test", Shard{})
	if l.Size() != 0 {
		t.Fatal("new log not empty")
	}
	sct, err := l.AddChain(testCert(t, 1, "a.com", 0, 90), 10)
	if err != nil {
		t.Fatal(err)
	}
	if sct.Index != 0 || sct.Timestamp != 10 || sct.LogName != "test" {
		t.Fatalf("sct = %+v", sct)
	}
	sth := l.STH()
	if sth.Size != 1 || sth.Timestamp != 10 {
		t.Fatalf("sth = %+v", sth)
	}
	if !l.VerifySTH(sth) {
		t.Fatal("own STH does not verify")
	}
	sth.Size++
	if l.VerifySTH(sth) {
		t.Fatal("tampered STH verified")
	}
}

func TestAddChainDedupsResubmission(t *testing.T) {
	l := New("test", Shard{})
	c := testCert(t, 1, "a.com", 0, 90)
	sct1, err := l.AddChain(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	sct2, err := l.AddChain(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sct1 != sct2 {
		t.Fatalf("resubmission SCT differs: %+v vs %+v", sct1, sct2)
	}
	if l.Size() != 1 {
		t.Fatalf("size = %d after duplicate submission", l.Size())
	}
	// Same cert at a different day is a distinct entry (different leaf).
	if _, err := l.AddChain(c, 11); err != nil {
		t.Fatal(err)
	}
	if l.Size() != 2 {
		t.Fatalf("size = %d, want 2", l.Size())
	}
}

func TestShardRejection(t *testing.T) {
	shard := Shard{Start: simtime.MustParse("2021-01-01"), End: simtime.MustParse("2022-01-01")}
	l := New("shard2021", shard)
	in := testCert(t, 1, "a.com", simtime.MustParse("2020-06-01"), simtime.MustParse("2021-06-01"))
	if _, err := l.AddChain(in, 0); err != nil {
		t.Fatalf("in-shard cert rejected: %v", err)
	}
	out := testCert(t, 2, "b.com", simtime.MustParse("2021-06-01"), simtime.MustParse("2022-06-01"))
	if _, err := l.AddChain(out, 0); !errors.Is(err, ErrWrongShard) {
		t.Fatalf("out-of-shard cert: %v", err)
	}
	// Boundary: End is exclusive.
	boundary := testCert(t, 3, "c.com", 0, shard.End-1)
	if _, err := l.AddChain(boundary, 0); err != nil {
		t.Fatalf("boundary cert rejected: %v", err)
	}
}

func TestEntriesRange(t *testing.T) {
	l := New("test", Shard{})
	for i := uint64(0); i < 10; i++ {
		if _, err := l.AddChain(testCert(t, i+1, "a.com", 0, simtime.Day(i+1)), simtime.Day(i)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := l.Entries(3, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Index != 3 || got[2].Index != 5 {
		t.Fatalf("entries = %+v", got)
	}
	if _, err := l.Entries(5, 3); !errors.Is(err, ErrRangeInvalid) {
		t.Fatal("inverted range accepted")
	}
	if _, err := l.Entries(0, 10); !errors.Is(err, ErrRangeInvalid) {
		t.Fatal("out-of-range end accepted")
	}
	// Entries must be copies: mutating a returned cert must not corrupt the log.
	got[0].Cert.Names[0] = "evil.com"
	again, _ := l.Entries(3, 3)
	if again[0].Cert.Names[0] != "a.com" {
		t.Fatal("Entries aliases internal state")
	}
}

func TestInclusionAndConsistencyProofsViaLog(t *testing.T) {
	l := New("test", Shard{})
	var leaves []merkle.Hash
	for i := uint64(0); i < 20; i++ {
		c := testCert(t, i+1, "a.com", 0, simtime.Day(i+1))
		if _, err := l.AddChain(c, simtime.Day(i)); err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, merkle.LeafHash(Entry{Index: i, Timestamp: simtime.Day(i), Cert: c}.LeafData()))
	}
	sth := l.STH()
	for i, leaf := range leaves {
		idx, proof, err := l.InclusionProof(leaf, sth.Size)
		if err != nil {
			t.Fatal(err)
		}
		if idx != uint64(i) {
			t.Fatalf("index %d, want %d", idx, i)
		}
		if !merkle.VerifyInclusion(leaf, idx, sth.Size, proof, sth.Root) {
			t.Fatalf("inclusion proof %d failed", i)
		}
	}
	r10, err := l.RootAt(10)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := l.ConsistencyProof(10, sth.Size)
	if err != nil {
		t.Fatal(err)
	}
	if !merkle.VerifyConsistency(10, sth.Size, r10, sth.Root, proof) {
		t.Fatal("consistency proof failed")
	}
	if _, _, err := l.InclusionProof(merkle.LeafHash([]byte("missing")), sth.Size); !errors.Is(err, ErrNotFound) {
		t.Fatal("missing leaf proof should fail")
	}
}

func TestSTHClockIsMonotone(t *testing.T) {
	l := New("test", Shard{})
	if _, err := l.AddChain(testCert(t, 1, "a.com", 0, 9), 100); err != nil {
		t.Fatal(err)
	}
	if _, err := l.AddChain(testCert(t, 2, "b.com", 0, 9), 50); err != nil {
		t.Fatal(err)
	}
	if sth := l.STH(); sth.Timestamp != 100 {
		t.Fatalf("STH timestamp went backwards: %v", sth.Timestamp)
	}
}

func TestShardedLogs(t *testing.T) {
	logs := ShardedLogs("argon", 2020, 2022, true)
	if len(logs) != 4 {
		t.Fatalf("got %d logs", len(logs))
	}
	if logs[0].Name() != "argon2020" || logs[3].Name() != "argon-all" {
		t.Fatalf("names = %s, %s", logs[0].Name(), logs[3].Name())
	}
	// A cert expiring 2021-06-01 must land in argon2021 and argon-all only.
	c := New("x", Shard{})
	_ = c
	col := NewCollection(logs...)
	cert := testCert(t, 1, "a.com", simtime.MustParse("2020-07-01"), simtime.MustParse("2021-06-01"))
	scts := col.Submit(cert, 0)
	if len(scts) != 2 {
		t.Fatalf("submitted to %d logs, want 2", len(scts))
	}
	names := map[string]bool{}
	for _, s := range scts {
		names[s.LogName] = true
	}
	if !names["argon2021"] || !names["argon-all"] {
		t.Fatalf("landed in %v", names)
	}
}

func TestCollectionDedup(t *testing.T) {
	logs := ShardedLogs("op", 2021, 2021, true)
	col := NewCollection(logs...)

	nb, na := simtime.MustParse("2021-01-15"), simtime.MustParse("2021-06-15")
	final := testCert(t, 7, "dedup.com", nb, na)
	pre := final.Clone()
	pre.Precert = true

	// Submit precert then final to both logs (4 raw entries, 1 unique cert).
	col.Submit(pre, 10)
	col.Submit(final, 11)

	certs, stats := col.Dedup()
	if stats.RawEntries != 4 {
		t.Fatalf("raw = %d, want 4", stats.RawEntries)
	}
	if stats.Unique != 1 || len(certs) != 1 {
		t.Fatalf("unique = %d", stats.Unique)
	}
	if certs[0].Precert {
		t.Fatal("dedup kept precert over final certificate")
	}
	if stats.PrecertMerged == 0 {
		t.Fatal("precert merge not accounted")
	}
}

func TestCollectionDedupPrefersFinalRegardlessOfOrder(t *testing.T) {
	l := New("solo", Shard{})
	col := NewCollection(l)
	final := testCert(t, 9, "x.com", 0, 100)
	pre := final.Clone()
	pre.Precert = true
	// Final first, then precert.
	col.Submit(final, 1)
	col.Submit(pre, 2)
	certs, _ := col.Dedup()
	if len(certs) != 1 || certs[0].Precert {
		t.Fatal("dedup did not prefer final cert when precert arrived later")
	}
}

// TestProofsFromManyReadersAtOnce: every replica of a fleet asks a growing
// log for a consistency proof each round, at the same moment, beside its
// get-entries readers and the submitter, all under the shared read lock while
// the tree grows under the write lock (run with -race).
func TestProofsFromManyReadersAtOnce(t *testing.T) {
	l := New("busy", Shard{})
	for i := uint64(0); i < 300; i++ {
		if _, err := l.AddChain(testCert(t, i+1, "busy.com", 0, 9), 1); err != nil {
			t.Fatal(err)
		}
	}
	head := l.STH()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				first := uint64(1 + (g*40+i)%299)
				proof, err := l.ConsistencyProof(first, head.Size)
				root, _ := l.RootAt(first)
				if err != nil || !merkle.VerifyConsistency(first, head.Size, root, head.Root, proof) {
					t.Errorf("consistency %d -> %d: %v", first, head.Size, err)
					return
				}
				if _, err := l.Entries(first, first); err != nil {
					t.Error(err)
				}
			}
		}(g)
	}
	for i := uint64(300); i < 340; i++ {
		if _, err := l.AddChain(testCert(t, i+1, "busy.com", 0, 9), 1); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
}
