package ctlog

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzGetEntriesDecode: a get-entries body is bytes a log hands us. Decoding
// never panics, and the one-pass scan never changes the answer: on any body
// decodeEntries returns what the encoding/json decode of the same bytes
// returns — the same entries, or an error on both sides. Seeds beyond the
// ones added here are under testdata/fuzz.
func FuzzGetEntriesDecode(f *testing.F) {
	entries, err := variedLog(f).Entries(0, 3)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(parentPage(f, entries))
	for _, page := range foreignPages(f, entries) {
		f.Add(page)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		got, gerr := decodeEntries(body, 7)
		want, werr := decodeEntriesJSON(body, 7)
		if (gerr == nil) != (werr == nil) {
			t.Fatalf("decodeEntries error %v, encoding/json error %v", gerr, werr)
		}
		if gerr == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("decodeEntries = %+v\nencoding/json = %+v", got, want)
		}
	})
}

// FuzzAddChainRequest: an add-chain body is bytes any client sends. Decoding
// never panics, and the exact-shape scan never changes the answer: a body it
// accepts, encoding/json accepts too, with the same leaf, so the handler
// (the scan, else encoding/json) accepts what encoding/json alone accepts.
// Seeds beyond the one added here, a body as Client.AddChain sends it, are
// under testdata/fuzz.
func FuzzAddChainRequest(f *testing.F) {
	entries, err := variedLog(f).Entries(1, 1)
	if err != nil {
		f.Fatal(err)
	}
	body, err := json.Marshal(addChainRequest{Chain: []string{base64.StdEncoding.EncodeToString(entries[0].Cert.Marshal())}})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Fuzz(func(t *testing.T, body []byte) {
		want, werr := decodeAddChainJSON(body)
		if got, ok := scanAddChain(body); ok && (werr != nil || !bytes.Equal(got, want)) {
			t.Fatalf("scan = %x, encoding/json = %x, %v", got, want, werr)
		}
	})
}
