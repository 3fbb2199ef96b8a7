package x509sim

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"stalecert/internal/simtime"
)

func mustCert(t *testing.T, names []string, nb, na simtime.Day) *Certificate {
	t.Helper()
	c, err := New(1, 2, 3, names, nb, na)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCanonicalisesNames(t *testing.T) {
	c := mustCert(t, []string{"WWW.Example.COM", "example.com.", "example.com"}, 0, 90)
	want := []string{"example.com", "www.example.com"}
	if !reflect.DeepEqual(c.Names, want) {
		t.Fatalf("Names = %v, want %v", c.Names, want)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(1, 1, 1, nil, 0, 1); err != ErrNoNames {
		t.Errorf("no names: %v", err)
	}
	if _, err := New(1, 1, 1, []string{"example.com"}, 10, 5); err != ErrBadValidity {
		t.Errorf("inverted validity: %v", err)
	}
	if _, err := New(1, 1, 1, []string{"bad name"}, 0, 1); err == nil {
		t.Error("bad SAN accepted")
	}
	many := make([]string, MaxNames+1)
	for i := range many {
		many[i] = "x.com"
	}
	if _, err := New(1, 1, 1, many, 0, 1); err != ErrTooManyNames {
		t.Errorf("too many names: %v", err)
	}
}

func TestLifetimeAndValidity(t *testing.T) {
	c := mustCert(t, []string{"example.com"}, 100, 189)
	if got := c.LifetimeDays(); got != 90 {
		t.Fatalf("LifetimeDays = %d, want 90", got)
	}
	if c.ValidOn(99) || !c.ValidOn(100) || !c.ValidOn(189) || c.ValidOn(190) {
		t.Fatal("ValidOn boundary semantics wrong")
	}
}

func TestCoversAndHasName(t *testing.T) {
	c := mustCert(t, []string{"example.com", "*.example.com", "sni1.cloudflaressl.com"}, 0, 1)
	if !c.Covers("example.com") || !c.Covers("www.example.com") {
		t.Error("Covers failed on direct/wildcard")
	}
	if c.Covers("a.b.example.com") {
		t.Error("wildcard should not cover two labels")
	}
	if !c.HasName("example.com") || c.HasName("www.example.com") {
		t.Error("HasName semantics wrong")
	}
}

func TestFingerprintIgnoresCTComponents(t *testing.T) {
	a := mustCert(t, []string{"example.com"}, 0, 90)
	b := a.Clone()
	b.Precert = true
	b.SCTCount = 3
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("fingerprint should exclude CT components (precert dedup)")
	}
	c := a.Clone()
	c.Serial++
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("fingerprint should reflect serial")
	}
	d := a.Clone()
	d.Names = []string{"other.com"}
	if a.Fingerprint() == d.Fingerprint() {
		t.Fatal("fingerprint should reflect names")
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	c := mustCert(t, []string{"example.com", "*.example.com"}, -50, 400)
	c.Precert = true
	c.SCTCount = 2
	c.Usage = UsageServerAuth | UsageClientAuth
	got, err := Unmarshal(c.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(c, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, c)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	c := mustCert(t, []string{"example.com"}, 0, 1)
	enc := c.Marshal()
	if _, err := Unmarshal(enc[:len(enc)-1]); err != ErrTruncated {
		t.Errorf("truncated: %v", err)
	}
	if _, err := Unmarshal(append(enc, 0)); err != ErrTrailingBytes {
		t.Errorf("trailing: %v", err)
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 0xFF
	if _, err := Unmarshal(bad); err != ErrBadMagic {
		t.Errorf("magic: %v", err)
	}
	if _, err := Unmarshal(nil); err != ErrTruncated {
		t.Errorf("empty: %v", err)
	}
}

func TestUnmarshalPrefixStream(t *testing.T) {
	a := mustCert(t, []string{"a.com"}, 0, 1)
	b := mustCert(t, []string{"b.com", "c.com"}, 5, 100)
	stream := append(a.Marshal(), b.Marshal()...)
	gotA, rest, err := unmarshalPrefix(stream)
	if err != nil {
		t.Fatal(err)
	}
	gotB, rest, err := unmarshalPrefix(rest)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("leftover %d bytes", len(rest))
	}
	if !reflect.DeepEqual(a, gotA) || !reflect.DeepEqual(b, gotB) {
		t.Fatal("stream decode mismatch")
	}
}

func TestDedupKey(t *testing.T) {
	a := mustCert(t, []string{"a.com"}, 0, 1)
	b := a.Clone()
	b.Names = []string{"b.com"}
	if a.DedupKey() != b.DedupKey() {
		t.Fatal("dedup key should only depend on issuer+serial")
	}
}

func TestKeyUsageString(t *testing.T) {
	if got := (UsageServerAuth | UsageOCSPSigning).String(); got != "serverAuth+ocspSigning" {
		t.Fatalf("usage string = %q", got)
	}
	if got := KeyUsage(0).String(); got != "none" {
		t.Fatalf("zero usage string = %q", got)
	}
}

func TestFingerprintString(t *testing.T) {
	f := mustCert(t, []string{"a.com"}, 0, 1).Fingerprint()
	if len(f.String()) != 16 {
		t.Fatalf("fingerprint string = %q", f.String())
	}
}

func TestQuickMarshalRoundTrip(t *testing.T) {
	f := func(serial uint64, issuer uint16, key uint64, nb, na int16, nNames uint8, precert bool, scts uint8) bool {
		lo, hi := simtime.Day(nb), simtime.Day(na)
		if hi < lo {
			lo, hi = hi, lo
		}
		n := int(nNames)%5 + 1
		names := make([]string, n)
		for i := range names {
			names[i] = string([]byte{'a' + byte(i), '0' + byte(i)}) + ".example.com"
		}
		c, err := New(SerialNumber(serial), IssuerID(issuer), KeyID(key), names, lo, hi)
		if err != nil {
			return false
		}
		c.Precert = precert
		c.SCTCount = scts
		got, err := Unmarshal(c.Marshal())
		return err == nil && reflect.DeepEqual(c, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFingerprintDeterministic(t *testing.T) {
	f := func(serial uint64, key uint64) bool {
		a, err := New(SerialNumber(serial), 7, KeyID(key), []string{"example.com"}, 0, 90)
		if err != nil {
			return false
		}
		b := a.Clone()
		return a.Fingerprint() == b.Fingerprint()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMarshalDeterministic(t *testing.T) {
	f := func(serial uint64) bool {
		c, err := New(SerialNumber(serial), 1, 1, []string{"z.com", "a.com"}, 0, 5)
		if err != nil {
			return false
		}
		return bytes.Equal(c.Marshal(), c.Clone().Marshal())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkMarshal(b *testing.B) {
	c, _ := New(42, 7, 99, []string{"example.com", "*.example.com", "www.example.com"}, 0, 397)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Marshal()
	}
}

func BenchmarkUnmarshal(b *testing.B) {
	c, _ := New(42, 7, 99, []string{"example.com", "*.example.com", "www.example.com"}, 0, 397)
	enc := c.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFingerprint(b *testing.B) {
	c, _ := New(42, 7, 99, []string{"example.com", "*.example.com"}, 0, 397)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = c.Fingerprint()
	}
}
