package certstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"stalecert/internal/core"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

func mkCert(t testing.TB, serial uint64, names []string, nb, na simtime.Day) *x509sim.Certificate {
	t.Helper()
	c, err := x509sim.New(x509sim.SerialNumber(serial), x509sim.IssuerID(serial%5+1), x509sim.KeyID(serial), names, nb, na)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func openTemp(t testing.TB, opts Options) *Store {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStoreAppendAndLookups(t *testing.T) {
	s := openTemp(t, Options{})
	certs := []*x509sim.Certificate{
		mkCert(t, 1, []string{"a.example.com", "b.example.com"}, 0, 100),
		mkCert(t, 2, []string{"example.org", "*.example.org"}, 10, 200),
		mkCert(t, 3, []string{"example.org"}, 20, 120),
	}
	added, err := s.Append(certs)
	if err != nil || added != 3 {
		t.Fatalf("Append = %d, %v", added, err)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}

	// Fingerprint dedup, including precert/final-cert pairing: a precert
	// differs only in CT components, so it shares the fingerprint.
	pre := certs[0].Clone()
	pre.Precert = true
	pre.SCTCount = 2
	added, err = s.Append([]*x509sim.Certificate{pre, certs[1]})
	if err != nil || added != 0 {
		t.Fatalf("dedup Append = %d, %v", added, err)
	}

	if c, ok := s.ByFingerprint(certs[0].Fingerprint()); !ok || c.Serial != 1 {
		t.Fatalf("ByFingerprint = %v %v", c, ok)
	}
	var prefix [8]byte
	fp := certs[1].Fingerprint()
	copy(prefix[:], fp[:8])
	if c, ok := s.ByShortFingerprint(prefix); !ok || c.Serial != 2 {
		t.Fatalf("ByShortFingerprint = %v %v", c, ok)
	}
	if c, ok := s.ByKey(certs[2].DedupKey()); !ok || c.Serial != 3 {
		t.Fatalf("ByKey = %v %v", c, ok)
	}
	if got := s.ByE2LD("example.org"); len(got) != 2 {
		t.Fatalf("ByE2LD(example.org) = %d certs", len(got))
	}
	if got := s.ByE2LD("example.com"); len(got) != 1 || got[0].Serial != 1 {
		t.Fatalf("ByE2LD(example.com) = %v", got)
	}
	if got := s.ByE2LD("nothing.net"); got != nil {
		t.Fatalf("ByE2LD(miss) = %v", got)
	}
}

func TestStoreByE2LDDefensiveCopy(t *testing.T) {
	s := openTemp(t, Options{})
	s.Append([]*x509sim.Certificate{
		mkCert(t, 1, []string{"a.dom.com"}, 0, 100),
		mkCert(t, 2, []string{"b.dom.com"}, 0, 100),
	})
	got := s.ByE2LD("dom.com")
	got[0], got[1] = nil, nil // caller scribbles over its copy
	again := s.ByE2LD("dom.com")
	if len(again) != 2 || again[0] == nil || again[1] == nil {
		t.Fatalf("index corrupted by caller mutation: %v", again)
	}
}

func TestStoreReopenRestoresEverything(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir})
	var want []*x509sim.Certificate
	for i := uint64(1); i <= 20; i++ {
		want = append(want, mkCert(t, i, []string{"site.example.com"}, 0, 500))
	}
	if _, err := s.Append(want); err != nil {
		t.Fatal(err)
	}
	if err := s.SetCheckpoint(Checkpoint{LogName: "l", NextIndex: 20, STHSize: 20}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := openTemp(t, Options{Dir: dir})
	if re.Len() != 20 {
		t.Fatalf("reopened Len = %d", re.Len())
	}
	for _, c := range want {
		if _, ok := re.ByFingerprint(c.Fingerprint()); !ok {
			t.Fatalf("lost cert %v after reopen", c)
		}
	}
	cp, ok := re.Checkpoint()
	if !ok || cp.NextIndex != 20 || cp.LogName != "l" {
		t.Fatalf("checkpoint = %+v %v", cp, ok)
	}
	// Appends keep working after reopen, and dedup spans the restart.
	added, err := re.Append(want[:5])
	if err != nil || added != 0 {
		t.Fatalf("post-reopen dedup Append = %d, %v", added, err)
	}
}

// The largest certificate x509sim decodes, MaxNames SANs of 253 octets, is
// a record the store reads back: the writer and the reader share one bound.
func TestStoreReopensLargestCertificate(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir})
	label := strings.Repeat("a", 63)
	names := make([]string, x509sim.MaxNames)
	for i := range names {
		names[i] = fmt.Sprintf("%s.%s.%s.%s%03d.com", label, label, label, strings.Repeat("b", 54), i)
	}
	big := mkCert(t, 1, names, 0, 90)
	if big.MarshaledLen() != x509sim.MaxMarshaledLen {
		t.Fatalf("largest certificate encodes to %d bytes, MaxMarshaledLen is %d", big.MarshaledLen(), x509sim.MaxMarshaledLen)
	}
	if _, err := s.Append([]*x509sim.Certificate{big}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	re := openTemp(t, Options{Dir: dir})
	if _, ok := re.ByFingerprint(big.Fingerprint()); !ok || re.Len() != 1 {
		t.Fatalf("reopened store: Len %d, largest certificate found %v", re.Len(), ok)
	}
}

func TestStoreRecoversTornTail(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir})
	s.Append([]*x509sim.Certificate{
		mkCert(t, 1, []string{"x.com"}, 0, 10),
		mkCert(t, 2, []string{"y.com"}, 0, 10),
	})
	s.Close()

	// Simulate a crash mid-append: a record header promising more bytes
	// than were written.
	active := filepath.Join(dir, segmentFileName(0))
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x00, 0x00, 0x01, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re := openTemp(t, Options{Dir: dir})
	if re.Len() != 2 {
		t.Fatalf("recovered Len = %d, want 2", re.Len())
	}
	// The torn bytes must be gone so future appends start clean.
	added, err := re.Append([]*x509sim.Certificate{mkCert(t, 3, []string{"z.com"}, 0, 10)})
	if err != nil || added != 1 {
		t.Fatalf("post-recovery Append = %d, %v", added, err)
	}
	re.Close()
	re2 := openTemp(t, Options{Dir: dir})
	if re2.Len() != 3 {
		t.Fatalf("second reopen Len = %d, want 3", re2.Len())
	}
}

func TestStoreSealsSegments(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir, MaxSegmentBytes: 256})
	for i := uint64(1); i <= 30; i++ {
		if _, err := s.Append([]*x509sim.Certificate{mkCert(t, i, []string{"seal.example.com"}, 0, 100)}); err != nil {
			t.Fatal(err)
		}
	}
	if s.SegmentCount() < 3 {
		t.Fatalf("SegmentCount = %d, want several with a 256-byte cap", s.SegmentCount())
	}
	s.Close()
	re := openTemp(t, Options{Dir: dir})
	if re.Len() != 30 {
		t.Fatalf("reopen across seals Len = %d", re.Len())
	}
	if got := len(re.ByE2LD("example.com")); got != 30 {
		t.Fatalf("ByE2LD after reopen = %d", got)
	}
}

func TestStoreDetectsSealedCorruption(t *testing.T) {
	dir := t.TempDir()
	s := openTemp(t, Options{Dir: dir, MaxSegmentBytes: 128})
	for i := uint64(1); i <= 10; i++ {
		s.Append([]*x509sim.Certificate{mkCert(t, i, []string{"c.example.com"}, 0, 100)})
	}
	if s.SegmentCount() < 2 {
		t.Skip("need a sealed segment")
	}
	s.Close()

	// Flip one byte inside the first (sealed) segment.
	path := filepath.Join(dir, segmentFileName(0))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: dir}); err == nil {
		t.Fatal("Open accepted a corrupted sealed segment")
	} else if !strings.Contains(err.Error(), "certstore") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// Two crashes between createSegment and the manifest write leave two orphan
// segment files past the active one. Sealing overwrites them instead of
// spinning on their names, and every committed certificate survives a reopen.
func TestStoreSealsOverOrphanSegments(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(Options{Dir: dir, MaxSegmentBytes: 1000})
	if err != nil {
		t.Fatal(err)
	}
	orphan := mkCert(t, 1000, []string{"orphan.example.net"}, 0, 100)
	for _, n := range []int{1, 2} {
		if err := os.WriteFile(filepath.Join(dir, segmentFileName(n)), appendRecord([]byte(segmentMagic), orphan), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var want []*x509sim.Certificate
	for i := uint64(1); i <= 60; i++ {
		want = append(want, mkCert(t, i, []string{"orphaned.example.com"}, 0, 100))
	}
	// At the bound the store's lock is still held, so the store is not closed.
	appended := make(chan error, 1)
	go func() {
		for at := 0; at < len(want); at += 5 {
			if _, err := s.Append(want[at : at+5]); err != nil {
				appended <- err
				return
			}
		}
		appended <- s.Close()
	}()
	select {
	case err := <-appended:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("appends past two orphan segments had not returned 5 s later")
	}
	if s.SegmentCount() < 4 {
		t.Fatalf("SegmentCount = %d, want the active segment sealed past both orphans", s.SegmentCount())
	}
	re := openTemp(t, Options{Dir: dir})
	if re.Len() != len(want) {
		t.Fatalf("reopened Len = %d, want %d", re.Len(), len(want))
	}
	for _, c := range want {
		if _, ok := re.ByFingerprint(c.Fingerprint()); !ok {
			t.Fatalf("lost serial %d after reopen", c.Serial)
		}
	}
	if _, ok := re.ByFingerprint(orphan.Fingerprint()); ok {
		t.Fatal("an orphan segment's certificate was indexed")
	}
}

// A writer appends batches of thousands of certificates over many e2LDs while
// readers look each domain up. Every certificate ByE2LD returns must also be
// found by its (issuer, serial) key and both fingerprint forms: a reader sees
// a batch whole or not at all.
func TestStoreConcurrentReadersAndWriter(t *testing.T) {
	s := openTemp(t, Options{})
	const batches, perBatch, domains = 40, 2048, 512
	certs := make([]*x509sim.Certificate, batches*perBatch)
	fps := make(map[*x509sim.Certificate]x509sim.Fingerprint, len(certs))
	for i := range certs {
		c := mkCert(t, uint64(i+1), []string{fmt.Sprintf("w%d.rw%03d.com", i, i%domains)}, 0, 100)
		certs[i], fps[c] = c, c.Fingerprint()
	}
	var wg sync.WaitGroup
	written := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(written)
		for at := 0; at < len(certs); at += perBatch {
			if _, err := s.Append(certs[at : at+perBatch]); err != nil {
				t.Error(err)
				return
			}
			if err := s.SetCheckpoint(Checkpoint{NextIndex: uint64(at + perBatch)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// No reader takes Store.mu, which commit holds across a whole batch, so
	// these readers meet batches mid-way.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lastLen := 0
			for i := 0; ; i++ {
				select {
				case <-written:
					return
				default:
				}
				// The checkpoint is set after its batch's commit, so it never
				// runs ahead of the certificates it covers.
				cp, _ := s.Checkpoint()
				n := s.Len()
				if n < lastLen || n%perBatch != 0 || cp.NextIndex > uint64(n) {
					t.Errorf("Len %d after %d, checkpoint at %d: want whole batches, never fewer, none past the checkpoint's", n, lastLen, cp.NextIndex)
					return
				}
				lastLen = n
				if i%64 == 0 {
					if got := s.Certs(); len(got) < n || len(got)%perBatch != 0 || !reflect.DeepEqual(got[:n], certs[:n]) {
						t.Errorf("Certs = %d certificates after Len %d, want whole batches in order", len(got), n)
						return
					}
				}
				// Newest first: an unfinished batch is at the list's end.
				list := s.ByE2LD(fmt.Sprintf("rw%03d.com", i%domains))
				for k := len(list) - 1; k >= 0; k-- {
					c := list[k]
					if c == nil {
						t.Error("nil cert from ByE2LD during writes")
						return
					}
					fp := fps[c]
					_, byKey := s.ByKey(c.DedupKey())
					_, byFP := s.ByFingerprint(fp)
					_, byShort := s.ByShortFingerprint([8]byte(fp[:8]))
					if !byKey || !byFP || !byShort {
						t.Errorf("ByE2LD returned serial %d before its batch was whole: ByKey %v, ByFingerprint %v, ByShortFingerprint %v",
							c.Serial, byKey, byFP, byShort)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != len(certs) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(certs))
	}
}

// TestReadersDoNotWaitOnCommit holds a commit inside its fsync, with
// Store.mu held. Len, Checkpoint, SegmentCount and Certs must answer
// meanwhile, with what the last commit published.
func TestReadersDoNotWaitOnCommit(t *testing.T) {
	s := openTemp(t, Options{})
	first := []*x509sim.Certificate{
		mkCert(t, 1, []string{"held.example.com"}, 0, 100),
		mkCert(t, 2, []string{"held.example.org"}, 0, 100),
	}
	if _, err := s.Append(first); err != nil {
		t.Fatal(err)
	}
	cp := Checkpoint{LogName: "held", NextIndex: 2}
	if err := s.SetCheckpoint(cp); err != nil {
		t.Fatal(err)
	}
	inSync, release := make(chan struct{}), make(chan struct{})
	syncFile = func(f *os.File) error {
		close(inSync)
		<-release
		return f.Sync()
	}
	committed := make(chan error)
	go func() {
		_, err := s.Append([]*x509sim.Certificate{mkCert(t, 3, []string{"held.example.net"}, 0, 100)})
		committed <- err
	}()
	<-inSync

	type seen struct {
		n, segs int
		cp      Checkpoint
		ok      bool
		certs   []*x509sim.Certificate
		took    time.Duration
	}
	read := make(chan seen, 1)
	go func() {
		began := time.Now()
		var v seen
		v.n = s.Len()
		v.cp, v.ok = s.Checkpoint()
		v.segs = s.SegmentCount()
		v.certs = s.Certs()
		v.took = time.Since(began)
		read <- v
	}()
	var v seen
	answered := false
	select {
	case v = <-read:
		answered = true
	case <-time.After(time.Second):
	}
	close(release)
	err := <-committed
	syncFile = (*os.File).Sync
	if err != nil {
		t.Fatal(err)
	}
	if !answered {
		<-read
		t.Fatal("the readers waited out a commit held in its fsync")
	}
	if v.took > 10*time.Millisecond {
		t.Fatalf("the readers took %v while a commit was held in its fsync", v.took)
	}
	if v.n != 2 || !v.ok || v.cp != cp || v.segs != 1 || !reflect.DeepEqual(v.certs, first) {
		t.Fatalf("during the held commit: Len %d, Checkpoint %+v %v, SegmentCount %d, Certs %d; want the last commit's 2, %+v, 1",
			v.n, v.cp, v.ok, v.segs, len(v.certs), cp)
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d after the held commit returned, want 3", s.Len())
	}
}

func TestStoreCorpusSnapshot(t *testing.T) {
	s := openTemp(t, Options{})
	s.Append([]*x509sim.Certificate{
		mkCert(t, 1, []string{"snap.example.com"}, 0, 100),
		mkCert(t, 2, []string{"snap.example.com"}, 0, 150),
	})
	corpus := core.NewCorpus(s.Certs(), core.CorpusOptions{PSL: s.PSL()})
	if corpus.Len() != 2 {
		t.Fatalf("corpus Len = %d", corpus.Len())
	}
	if got := corpus.ByE2LD("example.com"); len(got) != 2 {
		t.Fatalf("corpus ByE2LD = %d", len(got))
	}
}
