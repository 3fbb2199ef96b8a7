package certstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"stalecert/internal/x509sim"
)

// testdata/parent-store was written by the commit before the ingest-path
// rewrite (PR 17's parent): fixtureCerts appended in the batches of
// fixtureBatches with fixtureOptions, a checkpoint set, the store closed.
// It pins the on-disk formats — segment records, manifest, checkpoint —
// against that writer.
const fixtureDir = "testdata/parent-store"

var fixtureBatches = []int{1, 17, 12, 18}

func fixtureOptions(dir string) Options { return Options{Dir: dir, MaxSegmentBytes: 1000} }

func fixtureCerts(t testing.TB) []*x509sim.Certificate {
	t.Helper()
	var certs []*x509sim.Certificate
	for i := uint64(1); i <= 48; i++ {
		names := []string{fmt.Sprintf("host%02d.fixture-%d.com", i, i%5)}
		if i%6 == 0 {
			names = append(names, fmt.Sprintf("*.fixture-%d.com", i%5), "sni4242.cloudflaressl.com", fmt.Sprintf("alt%02d.example.co.uk", i))
		}
		c := mkCert(t, i, names, 100, 1200)
		if i%7 == 0 {
			c.Precert, c.SCTCount = true, 2
		}
		certs = append(certs, c)
	}
	return certs
}

var fixtureCheckpoint = Checkpoint{
	LogName: "fixture-log", NextIndex: 48, STHSize: 50,
	STHRoot: "00112233445566778899aabbccddeeff00112233445566778899aabbccddeeff", Timestamp: 19327,
}

// writeFixtureStore appends the fixture certificates the way the fixture was
// written.
func writeFixtureStore(t testing.TB, dir string) {
	t.Helper()
	s, err := Open(fixtureOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	certs := fixtureCerts(t)
	for _, n := range fixtureBatches {
		if added, err := s.Append(certs[:n]); err != nil || added != n {
			t.Fatalf("Append = %d, %v; want %d", added, err, n)
		}
		certs = certs[n:]
	}
	if err := s.SetCheckpoint(fixtureCheckpoint); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestParentWrittenStoreOpens: a store the parent wrote opens with every
// certificate, index entry and the checkpoint, and takes further appends.
func TestParentWrittenStoreOpens(t *testing.T) {
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(fixtureDir)); err != nil {
		t.Fatal(err)
	}
	s, err := Open(fixtureOptions(dir))
	if err != nil {
		t.Fatalf("open the parent-written store: %v", err)
	}
	defer s.Close()
	want := fixtureCerts(t)
	if got := s.Certs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("store holds %d certificates, want the fixture's %d in order", len(got), len(want))
	}
	if s.SegmentCount() < 3 {
		t.Fatalf("fixture has %d segments; it is meant to span sealed ones", s.SegmentCount())
	}
	for _, c := range want {
		if got, ok := s.ByFingerprint(c.Fingerprint()); !ok || !reflect.DeepEqual(got, c) {
			t.Fatalf("ByFingerprint misses %v", c.Names)
		}
		if got, ok := s.ByKey(c.DedupKey()); !ok || got.Serial != c.Serial {
			t.Fatalf("ByKey misses %v", c.Names)
		}
	}
	if got := len(s.ByE2LD("fixture-0.com")); got != 9 {
		t.Fatalf("ByE2LD(fixture-0.com) = %d certificates, want 9", got)
	}
	if cp, ok := s.Checkpoint(); !ok || cp != fixtureCheckpoint {
		t.Fatalf("checkpoint = %+v %v", cp, ok)
	}
	if added, err := s.Append(append(want[:5:5], mkCert(t, 99, []string{"new.fixture-9.com"}, 100, 1200))); err != nil || added != 1 {
		t.Fatalf("Append after reopen = %d, %v; want only the new certificate", added, err)
	}
}

// TestSegmentBytesMatchParent: appending the same certificates in the same
// batches produces the files the parent produced, byte for byte.
func TestSegmentBytesMatchParent(t *testing.T) {
	dir := t.TempDir()
	writeFixtureStore(t, dir)
	want, err := os.ReadDir(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("wrote %d files, the fixture has %d", len(got), len(want))
	}
	for _, f := range want {
		a, err := os.ReadFile(filepath.Join(fixtureDir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(dir, f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs from the parent-written file (%d vs %d bytes)", f.Name(), len(b), len(a))
		}
	}
}
