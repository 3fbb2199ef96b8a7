package dnssim

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestRRTypeStrings(t *testing.T) {
	if TypeA.String() != "A" || TypeCNAME.String() != "CNAME" {
		t.Fatal("type names wrong")
	}
	if RRType(99).String() != "TYPE99" {
		t.Fatal(RRType(99).String())
	}
	if tt, ok := ParseRRType("AAAA"); !ok || tt != TypeAAAA {
		t.Fatal("ParseRRType")
	}
	if _, ok := ParseRRType("MX"); ok {
		t.Fatal("MX should be unsupported")
	}
}

func TestMessageRoundTripQuery(t *testing.T) {
	m := &Message{
		Header:    Header{ID: 0x1234, RecursionDesired: true},
		Questions: []Question{{Name: "example.com", Type: TypeA, Class: ClassIN}},
	}
	raw, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, m)
	}
}

func TestMessageRoundTripResponse(t *testing.T) {
	m := &Message{
		Header: Header{ID: 7, Response: true, Authoritative: true, RCode: RCodeNoError},
		Questions: []Question{
			{Name: "www.example.com", Type: TypeA, Class: ClassIN},
		},
		Answers: []Record{
			{Name: "www.example.com", Type: TypeCNAME, TTL: 300, Data: "example.cdn.cloudflare.com"},
			{Name: "example.cdn.cloudflare.com", Type: TypeA, TTL: 60, Data: "192.0.2.1"},
			{Name: "example.cdn.cloudflare.com", Type: TypeAAAA, TTL: 60, Data: "2001:db8::1"},
		},
		Authority: []Record{
			{Name: "example.com", Type: TypeNS, TTL: 86400, Data: "ns1.cloudflare.com"},
		},
		Additional: []Record{
			{Name: "example.com", Type: TypeTXT, TTL: 60, Data: "acme-challenge-token"},
		},
	}
	raw, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, m)
	}
}

func TestNameCompressionShrinksMessage(t *testing.T) {
	base := &Message{
		Header:    Header{ID: 1, Response: true},
		Questions: []Question{{Name: "a.very.long.subdomain.example.com", Type: TypeNS, Class: ClassIN}},
	}
	for i := 0; i < 5; i++ {
		base.Answers = append(base.Answers, Record{
			Name: "a.very.long.subdomain.example.com", Type: TypeNS, TTL: 60,
			Data: "ns.a.very.long.subdomain.example.com",
		})
	}
	raw, err := base.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// Without compression each repeated name costs ~35 bytes; with pointers
	// each repetition costs 2. Budget generously but meaningfully.
	if len(raw) > 180 {
		t.Fatalf("compressed message is %d bytes; compression not working", len(raw))
	}
	got, err := Unmarshal(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(base, got) {
		t.Fatal("compressed round trip mismatch")
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	m := &Message{
		Header:    Header{ID: 9},
		Questions: []Question{{Name: "example.com", Type: TypeA, Class: ClassIN}},
	}
	raw, _ := m.Marshal()
	if _, err := Unmarshal(raw[:5]); err == nil {
		t.Error("truncated header accepted")
	}
	if _, err := Unmarshal(raw[:len(raw)-3]); err == nil {
		t.Error("truncated question accepted")
	}
	if _, err := Unmarshal(append(raw, 0xAB)); err != ErrTrailingGarbage {
		t.Errorf("trailing bytes: %v", err)
	}
}

func TestUnmarshalPointerLoopGuard(t *testing.T) {
	// Craft a message whose question name is a pointer to itself.
	raw := make([]byte, 12)
	raw[5] = 1 // QDCOUNT = 1
	// Name at offset 12: pointer to offset 12 (self-loop).
	raw = append(raw, 0xC0, 12, 0, 1, 0, 1)
	if _, err := Unmarshal(raw); err != ErrBadPointer {
		t.Fatalf("self-pointer: %v", err)
	}
	// Forward pointer (to beyond current offset) is also invalid.
	raw2 := make([]byte, 12)
	raw2[5] = 1
	raw2 = append(raw2, 0xC0, 40, 0, 1, 0, 1)
	if _, err := Unmarshal(raw2); err != ErrBadPointer {
		t.Fatalf("forward pointer: %v", err)
	}
}

// TestUnmarshalRejectsDotInsideLabel: names are dotted strings here, so one
// wire label spelling "amy.ns.cloudflare.com" would read as that three-level
// name under the provider's zone (found by FuzzUnmarshal as labels "a", "."
// decoding to a name that re-marshals differently).
func TestUnmarshalRejectsDotInsideLabel(t *testing.T) {
	raw := make([]byte, 12)
	raw[5] = 1
	raw = append(raw, 21)
	raw = append(raw, "amy.ns.cloudflare.com"...)
	raw = append(raw, 0, 0, 2, 0, 1)
	if _, err := Unmarshal(raw); err != ErrDotInLabel {
		t.Fatalf("one label holding dots: %v", err)
	}
}

func TestMarshalRejectsBadNames(t *testing.T) {
	m := &Message{Questions: []Question{{Name: strings.Repeat("a", 300), Type: TypeA, Class: ClassIN}}}
	if _, err := m.Marshal(); err != ErrNameTooLong {
		t.Fatalf("long name: %v", err)
	}
	m2 := &Message{Questions: []Question{{Name: strings.Repeat("a", 64) + ".com", Type: TypeA, Class: ClassIN}}}
	if _, err := m2.Marshal(); err != ErrLabelTooLong {
		t.Fatalf("long label: %v", err)
	}
}

func TestRecordValidate(t *testing.T) {
	good := []Record{
		{Name: "a.com", Type: TypeA, Data: "192.0.2.7"},
		{Name: "a.com", Type: TypeAAAA, Data: "2001:db8::7"},
		{Name: "a.com", Type: TypeNS, Data: "ns1.example.net"},
		{Name: "www.a.com", Type: TypeCNAME, Data: "a.cdn.example.net"},
		{Name: "a.com", Type: TypeTXT, Data: "hello world"},
		{Name: "a.com", Type: TypeSOA, Data: "ns1.a.com"},
	}
	for _, r := range good {
		if err := r.Validate(); err != nil {
			t.Errorf("Validate(%v) = %v", r, err)
		}
	}
	bad := []Record{
		{Name: "a.com", Type: TypeA, Data: "2001:db8::7"},     // v6 in A
		{Name: "a.com", Type: TypeAAAA, Data: "192.0.2.7"},    // v4 in AAAA
		{Name: "a.com", Type: TypeA, Data: "not-an-ip"},       // garbage
		{Name: "a.com", Type: TypeNS, Data: "bad target.com"}, // space
		{Name: "bad name", Type: TypeA, Data: "192.0.2.1"},    // bad owner
		{Name: "a.com", Type: TypeTXT, Data: strings.Repeat("x", 256)},
		{Name: "a.com", Type: RRType(99), Data: "x"},
	}
	for _, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("Validate(%v) accepted", r)
		}
	}
}

func TestQuickWireRoundTrip(t *testing.T) {
	f := func(id uint16, nameSeed uint8, ttl uint32, aLast uint8) bool {
		name := string([]byte{'a' + nameSeed%26}) + ".example.com"
		m := &Message{
			Header:    Header{ID: id, Response: true, Authoritative: true},
			Questions: []Question{{Name: name, Type: TypeA, Class: ClassIN}},
			Answers: []Record{
				{Name: name, Type: TypeA, TTL: ttl, Data: "192.0.2." + itoa(int(aLast))},
			},
		}
		raw, err := m.Marshal()
		if err != nil {
			return false
		}
		got, err := Unmarshal(raw)
		return err == nil && reflect.DeepEqual(m, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [3]byte
	i := 3
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func BenchmarkMarshalResponse(b *testing.B) {
	m := &Message{
		Header:    Header{ID: 1, Response: true},
		Questions: []Question{{Name: "www.example.com", Type: TypeA, Class: ClassIN}},
		Answers: []Record{
			{Name: "www.example.com", Type: TypeCNAME, TTL: 300, Data: "x.cdn.cloudflare.com"},
			{Name: "x.cdn.cloudflare.com", Type: TypeA, TTL: 60, Data: "192.0.2.1"},
		},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUnmarshalResponse(b *testing.B) {
	m := &Message{
		Header:    Header{ID: 1, Response: true},
		Questions: []Question{{Name: "www.example.com", Type: TypeA, Class: ClassIN}},
		Answers: []Record{
			{Name: "www.example.com", Type: TypeCNAME, TTL: 300, Data: "x.cdn.cloudflare.com"},
			{Name: "x.cdn.cloudflare.com", Type: TypeA, TTL: 60, Data: "192.0.2.1"},
		},
	}
	raw, _ := m.Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(raw); err != nil {
			b.Fatal(err)
		}
	}
}
