package x509sim

import (
	"math/rand"
	"reflect"
	"testing"
)

func TestUnmarshalNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		buf := make([]byte, rng.Intn(150))
		rng.Read(buf)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %x: %v", buf, r)
				}
			}()
			_, _ = Unmarshal(buf)
		}()
	}
}

func TestUnmarshalNeverPanicsOnMutations(t *testing.T) {
	c, err := New(42, 7, 99, []string{"example.com", "*.example.com", "www.example.com"}, 10, 400)
	if err != nil {
		t.Fatal(err)
	}
	valid := c.Marshal()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		buf := append([]byte(nil), valid...)
		for k := 0; k < 1+rng.Intn(3); k++ {
			buf[rng.Intn(len(buf))] ^= byte(1 + rng.Intn(255))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %x: %v", buf, r)
				}
			}()
			if got, err := Unmarshal(buf); err == nil {
				_ = got.Marshal()
				_ = got.Fingerprint()
			}
		}()
	}
}

func TestUnmarshalTruncationsAllFail(t *testing.T) {
	c, _ := New(1, 1, 1, []string{"a.com"}, 0, 1)
	valid := c.Marshal()
	for cut := 0; cut < len(valid); cut++ {
		if _, err := Unmarshal(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

// FuzzUnmarshal: a certificate encoding is bytes from a log or a segment
// file. Unmarshal never panics, and whatever it accepts survives its own
// codec: re-encoding and decoding again yields an equal certificate, whose
// encoding has the length MarshaledLen promised.
func FuzzUnmarshal(f *testing.F) {
	for _, names := range [][]string{{"a.com"}, {"example.com", "*.example.com", "www.example.com"}} {
		c, err := New(42, 7, 99, names, 10, 400)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(c.Marshal())
		c.Precert, c.SCTCount = true, 3
		f.Add(c.Marshal())
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		c, err := Unmarshal(b)
		if err != nil {
			return
		}
		enc := c.Marshal()
		if len(enc) != c.MarshaledLen() {
			t.Fatalf("Marshal wrote %d bytes, MarshaledLen said %d", len(enc), c.MarshaledLen())
		}
		again, err := Unmarshal(enc)
		if err != nil || !reflect.DeepEqual(again, c) {
			t.Fatalf("Unmarshal(Marshal(c)) = %+v, %v; c = %+v", again, err, c)
		}
		if again.Fingerprint() != c.Fingerprint() {
			t.Fatal("fingerprint changed across a codec round trip")
		}
	})
}
