package dnssim

import (
	"math/rand"
	"reflect"
	"testing"

	"stalecert/internal/dnsname"
)

// Decoder robustness: arbitrary bytes must never panic and mutated valid
// messages must either fail or decode to something internally consistent.

func TestUnmarshalNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		n := rng.Intn(200)
		buf := make([]byte, n)
		rng.Read(buf)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on input %x: %v", buf, r)
				}
			}()
			_, _ = Unmarshal(buf)
		}()
	}
}

func TestUnmarshalNeverPanicsOnMutatedMessages(t *testing.T) {
	m := &Message{
		Header:    Header{ID: 77, Response: true, Authoritative: true},
		Questions: []Question{{Name: "www.example.com", Type: TypeA, Class: ClassIN}},
		Answers: []Record{
			{Name: "www.example.com", Type: TypeCNAME, TTL: 60, Data: "e.cdn.cloudflare.com"},
			{Name: "e.cdn.cloudflare.com", Type: TypeA, TTL: 60, Data: "192.0.2.1"},
			{Name: "e.cdn.cloudflare.com", Type: TypeTXT, TTL: 60, Data: "hello"},
		},
	}
	valid, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		buf := append([]byte(nil), valid...)
		// Flip 1-4 random bytes.
		for k := 0; k < 1+rng.Intn(4); k++ {
			buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on mutation %x: %v", buf, r)
				}
			}()
			if got, err := Unmarshal(buf); err == nil {
				// If it decodes, re-marshalling must not panic either.
				_, _ = got.Marshal()
			}
		}()
	}
}

func TestUnmarshalTruncationsAllFail(t *testing.T) {
	m := &Message{
		Header:    Header{ID: 5},
		Questions: []Question{{Name: "a.example.com", Type: TypeNS, Class: ClassIN}},
	}
	valid, _ := m.Marshal()
	for cut := 0; cut < len(valid); cut++ {
		if _, err := Unmarshal(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// FuzzUnmarshal: a datagram is bytes from whoever can reach the port.
// Unmarshal never panics and always returns (compression pointers only point
// backwards, and only so often), and a message it accepts that Marshal can
// encode again — every record of a known type — decodes from that encoding to
// the same message, names in canonical case.
func FuzzUnmarshal(f *testing.F) {
	for _, m := range []*Message{
		{Header: Header{ID: 5, RecursionDesired: true}, Questions: []Question{{Name: "a.example.com", Type: TypeNS, Class: ClassIN}}},
		{Header: Header{ID: 77, Response: true, Authoritative: true},
			Questions: []Question{{Name: "www.example.com", Type: TypeA, Class: ClassIN}},
			Answers: []Record{
				{Name: "www.example.com", Type: TypeCNAME, TTL: 60, Data: "e.cdn.cloudflare.com"},
				{Name: "e.cdn.cloudflare.com", Type: TypeA, TTL: 60, Data: "192.0.2.1"},
				{Name: "e.cdn.cloudflare.com", Type: TypeTXT, TTL: 60, Data: "hello"},
			},
			Authority:  []Record{{Name: "cloudflare.com", Type: TypeSOA, TTL: 60, Data: "ns1.cloudflare.com"}},
			Additional: []Record{{Name: "ns1.cloudflare.com", Type: TypeAAAA, TTL: 60, Data: "2001:db8::1"}}},
		{Header: Header{ID: 9, Response: true, RCode: RCodeFormErr}},
	} {
		raw, err := m.Marshal()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := Unmarshal(b)
		if err != nil {
			return
		}
		enc, err := m.Marshal()
		if err != nil {
			return
		}
		again, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("Unmarshal(Marshal(m)) = %v; m = %+v", err, m)
		}
		for i := range m.Questions {
			m.Questions[i].Name = dnsname.Canonical(m.Questions[i].Name)
		}
		for _, sec := range [][]Record{m.Answers, m.Authority, m.Additional} {
			for i := range sec {
				sec[i].Name = dnsname.Canonical(sec[i].Name)
				if t := sec[i].Type; t == TypeNS || t == TypeCNAME || t == TypeSOA {
					sec[i].Data = dnsname.Canonical(sec[i].Data)
				}
			}
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("Unmarshal(Marshal(m)):\n got %+v\nwant %+v", again, m)
		}
	})
}
