package crl

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"stalecert/internal/x509sim"
)

func TestUnmarshalNeverPanicsOnRandomBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		buf := make([]byte, rng.Intn(200))
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
	l := &List{CAName: "Sectigo", Number: 9, ThisUpdate: 100, NextUpdate: 107}
	for i := 0; i < 5; i++ {
		l.Entries = append(l.Entries, Entry{Issuer: 1, Serial: x509sim.SerialNumber(i), RevokedAt: 50, Reason: KeyCompromise})
	}
	valid := l.Marshal()
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
			}
		}()
	}
}

// FuzzUnmarshal: no input panics the decoder of every CRL body a fetcher
// reads, and a list it accepts survives a Marshal → Unmarshal round trip
// unchanged, encoded as the bytes it was read from. Seeds are in
// testdata/fuzz/FuzzUnmarshal.
func FuzzUnmarshal(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		l, err := Unmarshal(b)
		if err != nil {
			return
		}
		enc := l.Marshal()
		if !bytes.Equal(enc, b) {
			t.Fatalf("Marshal(Unmarshal(%x)) = %x", b, enc)
		}
		again, err := Unmarshal(enc)
		if err != nil || !reflect.DeepEqual(again, l) {
			t.Fatalf("Unmarshal(Marshal(l)) = %+v, %v; l = %+v", again, err, l)
		}
	})
}
