package x509sim

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// Boundary-case round-trips for the binary codec: the length fields are all
// one byte, so the interesting edges are MaxNames SANs, the 253-octet DNS
// name ceiling, and zero-length validity windows.

// maxLenName builds a 253-octet DNS name (the RFC 1035 ceiling) with
// 63-octet labels, parameterised so multiple distinct names can coexist in
// one SAN set.
func maxLenName(t *testing.T, i int) string {
	t.Helper()
	label := strings.Repeat("a", 63)
	name := fmt.Sprintf("%s.%s.%s.%s", label, label, label,
		strings.Repeat("b", 59)+fmt.Sprintf("%02d", i))
	if len(name) != 253 {
		t.Fatalf("helper built %d-octet name", len(name))
	}
	return name
}

func roundTrip(t *testing.T, c *Certificate) *Certificate {
	t.Helper()
	got, err := Unmarshal(c.Marshal())
	if err != nil {
		t.Fatalf("round-trip of %v: %v", c, err)
	}
	if got.String() != c.String() || got.Fingerprint() != c.Fingerprint() ||
		got.Usage != c.Usage || got.Precert != c.Precert || got.SCTCount != c.SCTCount {
		t.Fatalf("round-trip mismatch:\n in  %v\n out %v", c, got)
	}
	return got
}

func TestCodecMaxNames(t *testing.T) {
	names := make([]string, MaxNames)
	for i := range names {
		names[i] = fmt.Sprintf("host-%03d.cruise-liner.example.com", i)
	}
	c, err := New(7, 2, 99, names, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Names) != MaxNames {
		t.Fatalf("Names = %d", len(c.Names))
	}
	got := roundTrip(t, c)
	if len(got.Names) != MaxNames {
		t.Fatalf("decoded Names = %d", len(got.Names))
	}

	if _, err := New(7, 2, 99, append(names, "one-too-many.example.com"), 100, 200); !errors.Is(err, ErrTooManyNames) {
		t.Fatalf("MaxNames+1 err = %v", err)
	}
}

func TestCodecMaxLengthNames(t *testing.T) {
	names := []string{maxLenName(t, 1), maxLenName(t, 2), "short.example.com"}
	c, err := New(1, 1, 1, names, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, c)
	long := 0
	for _, n := range got.Names {
		if len(n) == 253 {
			long++
		}
	}
	if long != 2 {
		t.Fatalf("decoded %d max-length names, want 2: %v", long, got.Names)
	}
}

// Unmarshal refuses a SAN of 254 octets, one past what New accepts, so no
// decoded certificate encodes past MaxMarshaledLen.
func TestCodecRefusesOverlongName(t *testing.T) {
	c, err := New(1, 1, 1, []string{maxLenName(t, 1)}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Names[0] += "a"
	if _, err := Unmarshal(c.Marshal()); !errors.Is(err, ErrBadName) {
		t.Fatalf("254-octet SAN err = %v, want ErrBadName", err)
	}
}

func TestCodecZeroValidity(t *testing.T) {
	// A certificate valid for exactly one day: NotBefore == NotAfter.
	c, err := New(5, 1, 5, []string{"oneday.example.com"}, 42, 42)
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, c)
	if got.LifetimeDays() != 1 || !got.ValidOn(42) || got.ValidOn(41) || got.ValidOn(43) {
		t.Fatalf("zero-width validity decoded wrong: %v", got)
	}

	if _, err := New(5, 1, 5, []string{"x.example.com"}, 43, 42); !errors.Is(err, ErrBadValidity) {
		t.Fatalf("inverted validity err = %v", err)
	}
}

func TestCodecNegativeDays(t *testing.T) {
	// Days are int32s; pre-epoch days must survive the uint32 wire form.
	c, err := New(6, 1, 6, []string{"old.example.com"}, -400, -10)
	if err != nil {
		t.Fatal(err)
	}
	got := roundTrip(t, c)
	if got.NotBefore != -400 || got.NotAfter != -10 {
		t.Fatalf("negative days decoded as %v..%v", got.NotBefore, got.NotAfter)
	}
}

func TestCodecEmptySANSet(t *testing.T) {
	if _, err := New(1, 1, 1, nil, 0, 1); !errors.Is(err, ErrNoNames) {
		t.Fatalf("New(no names) err = %v", err)
	}
	// The wire format cannot represent zero names either: a hand-emptied
	// certificate encodes a count byte of 255 (len-1 underflow), which the
	// decoder reads as 256 names and rejects as truncated.
	c, err := New(1, 1, 1, []string{"x.example.com"}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	c.Names = nil
	if _, err := Unmarshal(c.Marshal()); !errors.Is(err, ErrTruncated) {
		t.Fatalf("zero-SAN encoding err = %v", err)
	}
}

func TestCodecCTMetadataBoundaries(t *testing.T) {
	c, err := New(9, 3, 9, []string{"ct.example.com"}, 10, 20)
	if err != nil {
		t.Fatal(err)
	}
	pre := c.Clone()
	pre.Precert = true
	pre.SCTCount = 255
	got := roundTrip(t, pre)
	if !got.Precert || got.SCTCount != 255 {
		t.Fatalf("CT metadata decoded as precert=%v scts=%d", got.Precert, got.SCTCount)
	}
	// CT components stay outside the fingerprint.
	if got.Fingerprint() != c.Fingerprint() {
		t.Fatal("precert flag leaked into fingerprint")
	}
}

func TestCodecMalformedEncodings(t *testing.T) {
	c, err := New(2, 1, 2, []string{"m.example.com", "n.example.com"}, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	valid := c.Marshal()

	cases := []struct {
		name string
		mut  func([]byte) []byte
		want error
	}{
		{"empty", func(b []byte) []byte { return nil }, ErrTruncated},
		{"two bytes", func(b []byte) []byte { return b[:2] }, ErrTruncated},
		{"header only", func(b []byte) []byte { return b[:3] }, ErrTruncated},
		{"cut mid-fixed", func(b []byte) []byte { return b[:10] }, ErrTruncated},
		{"cut mid-name", func(b []byte) []byte { return b[:len(b)-3] }, ErrTruncated},
		{"bad outer magic", func(b []byte) []byte { b[0] ^= 0xff; return b }, ErrBadMagic},
		{"bad body magic", func(b []byte) []byte { b[3] ^= 0xff; return b }, ErrBadMagic},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0x00) }, ErrTrailingBytes},
	}
	for _, tc := range cases {
		buf := append([]byte(nil), valid...)
		if _, err := Unmarshal(tc.mut(buf)); !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	// Inverted validity on the wire (offsets: 3 header + 1 magic + 8 serial
	// + 2 issuer + 8 key = 22 → NotBefore at 22, NotAfter at 26).
	buf := append([]byte(nil), valid...)
	copy(buf[22:26], []byte{0x00, 0x00, 0x00, 0x63}) // NotBefore = 99 > NotAfter = 9
	if _, err := Unmarshal(buf); !errors.Is(err, ErrBadValidity) {
		t.Errorf("wire inverted validity err = %v", err)
	}
}

func TestFingerprintForms(t *testing.T) {
	c, err := New(3, 1, 3, []string{"fp.example.com"}, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	fp := c.Fingerprint()
	if len(fp.Hex()) != 64 || len(fp.String()) != 16 || !strings.HasPrefix(fp.Hex(), fp.String()) {
		t.Fatalf("Hex = %q String = %q", fp.Hex(), fp.String())
	}

	full, short, err := ParseFingerprint(fp.Hex())
	if err != nil || short || full != fp {
		t.Fatalf("ParseFingerprint(full) = %v %v %v", full, short, err)
	}
	pre, short, err := ParseFingerprint(fp.String())
	if err != nil || !short {
		t.Fatalf("ParseFingerprint(short) = %v %v", short, err)
	}
	if pre.String() != fp.String() {
		t.Fatalf("short prefix = %s, want %s", pre.String(), fp.String())
	}

	for _, bad := range []string{"", "abc", strings.Repeat("g", 64), strings.Repeat("a", 63), strings.Repeat("z", 16)} {
		if _, _, err := ParseFingerprint(bad); !errors.Is(err, ErrBadFingerprint) {
			t.Errorf("ParseFingerprint(%q) err = %v", bad, err)
		}
	}
}
