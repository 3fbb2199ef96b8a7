package ctlog

import (
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
