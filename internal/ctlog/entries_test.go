package ctlog

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// variedLog holds the certificate shapes the codec distinguishes: one SAN,
// many SANs, a wildcard, a precertificate with SCTs, a negative timestamp.
func variedLog(t testing.TB) *Log {
	t.Helper()
	l := New("varied", Shard{})
	add := func(day simtime.Day, serial uint64, mutate func(*x509sim.Certificate), names ...string) {
		c, err := x509sim.New(x509sim.SerialNumber(serial), x509sim.IssuerID(serial%7), x509sim.KeyID(serial*3), names, 10, 400)
		if err != nil {
			t.Fatal(err)
		}
		if mutate != nil {
			mutate(c)
		}
		if _, err := l.AddChain(c, day); err != nil {
			t.Fatal(err)
		}
	}
	add(100, 1, nil, "one.example.com")
	add(101, 2, nil, "a.example.org", "b.example.org", "*.example.org", "example.org")
	add(-3, 3, func(c *x509sim.Certificate) { c.Precert, c.SCTCount = true, 2 }, "pre.example.net")
	add(102, 4, func(c *x509sim.Certificate) { c.Usage |= x509sim.UsageClientAuth }, "usage.example.co.uk")
	for i := uint64(5); i < 40; i++ {
		add(simtime.Day(100+i), i, nil, fmt.Sprintf("host%02d.bulk-%d.com", i, i%3))
	}
	return l
}

// parentPage is the get-entries body as it was encoded before entriesJSON:
// json.Encoder over the response struct, one LeafData and one base64 string
// per entry.
func parentPage(t testing.TB, entries []Entry) []byte {
	t.Helper()
	resp := getEntriesResponse{Entries: make([]entryJSON, len(entries))}
	for i, e := range entries {
		resp.Entries[i].LeafInput = base64.StdEncoding.EncodeToString(e.LeafData())
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGetEntriesWireUnchanged: the handler's body is byte for byte what the
// reflected encode produced, declares its length, and decodes — through
// encoding/json alone, as any RFC 6962 client would — to Log.Entries.
func TestGetEntriesWireUnchanged(t *testing.T) {
	l := variedLog(t)
	want, err := l.Entries(2, 30)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	NewServer(l).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/ct/v1/get-entries?start=2&end=30", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	body := rec.Body.Bytes()
	if !bytes.Equal(body, parentPage(t, want)) {
		t.Fatalf("served page differs from the json.Encoder encoding:\n%s", body)
	}
	if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(len(body)) {
		t.Fatalf("Content-Length = %q for a %d-byte body", got, len(body))
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	got, err := decodeEntriesJSON(body, 2)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("encoding/json decode of the served page: %v\n got %+v\nwant %+v", err, got, want)
	}
	if fast, ok := scanEntries(body, 2); !ok || !reflect.DeepEqual(fast, want) {
		t.Fatalf("scanEntries declined or mis-decoded the page this package serves (ok=%v)", ok)
	}
}

// foreignPages are bodies another RFC 6962 log may send for entries: all
// valid JSON for the same entries, none in the exact shape scanEntries reads.
func foreignPages(t testing.TB, entries []Entry) map[string][]byte {
	t.Helper()
	type foreignEntry struct {
		LeafInput string `json:"leaf_input"`
		ExtraData string `json:"extra_data"`
	}
	var withExtra struct {
		Entries []foreignEntry `json:"entries"`
	}
	for _, e := range entries {
		withExtra.Entries = append(withExtra.Entries, foreignEntry{
			LeafInput: base64.StdEncoding.EncodeToString(e.LeafData()),
			ExtraData: base64.StdEncoding.EncodeToString([]byte("chain")),
		})
	}
	var extra bytes.Buffer
	if err := json.NewEncoder(&extra).Encode(withExtra); err != nil {
		t.Fatal(err)
	}
	indented, err := json.MarshalIndent(withExtra, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	plain := parentPage(t, entries)
	return map[string][]byte{
		"extra_data":      extra.Bytes(),
		"indented":        indented,
		"escaped-solidus": bytes.ReplaceAll(plain, []byte("/"), []byte(`\/`)),
		"unknown-field":   bytes.Replace(plain, []byte(`{"entries"`), []byte(`{"sth_hint":7,"entries"`), 1),
		"trailing-space":  append(bytes.TrimSuffix(plain, []byte("\n")), " \r\n"...),
	}
}

// TestDecodeEntriesForeignShapes: what scanEntries does not recognise takes
// the encoding/json path and yields the same entries as the exact shape.
func TestDecodeEntriesForeignShapes(t *testing.T) {
	want, err := variedLog(t).Entries(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range foreignPages(t, want) {
		if _, ok := scanEntries(body, 0); ok {
			t.Errorf("%s: scanEntries accepted a body outside its shape", name)
		}
		got, err := decodeEntries(body, 0)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decodeEntries = %d entries, %v; want the %d served", name, len(got), err, len(want))
		}
	}
	// The exact shape without json.Encoder's newline (json.Marshal) is
	// scanned too.
	if got, ok := scanEntries(bytes.TrimSuffix(parentPage(t, want), []byte("\n")), 0); !ok || !reflect.DeepEqual(got, want) {
		t.Errorf("scanEntries declined the exact shape without a trailing newline (ok=%v)", ok)
	}
}

// TestDecodeEntriesErrors: a damaged page is an error, not a short page.
func TestDecodeEntriesErrors(t *testing.T) {
	entries, err := variedLog(t).Entries(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	page := parentPage(t, entries)
	leaf := base64.StdEncoding.EncodeToString(entries[1].LeafData())
	for name, body := range map[string][]byte{
		"truncated":       page[:len(page)/2],
		"bad-base64":      bytes.Replace(page, []byte(leaf), []byte("!"+leaf[1:]), 1),
		"bad-certificate": bytes.Replace(page, []byte(leaf), []byte(base64.StdEncoding.EncodeToString([]byte("nonsense"))), 1),
		"newline-in-leaf": bytes.Replace(page, []byte(leaf), []byte(leaf[:8]+"\n"+leaf[8:]), 1),
		"empty":           nil,
	} {
		if got, err := decodeEntries(body, 0); err == nil {
			t.Errorf("%s: decodeEntries accepted it as %d entries", name, len(got))
		}
	}
}

// TestGetEntriesRejectsOverlongPage: a log that answers a range with more
// entries than it spans is refused, by GetEntries and so by Scrape, whose
// round would otherwise run past the tree head it fetched.
func TestGetEntriesRejectsOverlongPage(t *testing.T) {
	l := variedLog(t)
	honest := NewServer(l).Handler()
	lying := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ct/v1/get-entries" {
			q := r.URL.Query()
			end, _ := strconv.Atoi(q.Get("end"))
			q.Set("end", strconv.Itoa(end+3))
			r.URL.RawQuery = q.Encode()
		}
		honest.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(lying)
	defer ts.Close()
	client := NewClient(ts.URL, ts.Client())
	ctx := context.Background()

	if got, err := client.GetEntries(ctx, 4, 9); err == nil || !strings.Contains(err.Error(), "returned 9 entries") {
		t.Fatalf("GetEntries(4, 9) from a log that sends 9 = %d entries, %v", len(got), err)
	}
	// A round's last page runs past its head once the log has grown since.
	sth, err := client.GetSTH(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 3; i++ {
		c, err := x509sim.New(x509sim.SerialNumber(100+i), 1, x509sim.KeyID(100+i), []string{"late.example.com"}, 10, 400)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.AddChain(c, 200); err != nil {
			t.Fatal(err)
		}
	}
	if err := client.ScrapePages(ctx, sth, ScrapeOptions{From: sth.Size - 10}, func([]Entry) error { return nil }); err == nil || !strings.Contains(err.Error(), "returned 13 entries") {
		t.Fatalf("ScrapePages over a page past its head = %v", err)
	}
	// A short page stays legal: the server may return fewer.
	short := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ct/v1/get-entries" {
			q := r.URL.Query()
			q.Set("end", q.Get("start"))
			r.URL.RawQuery = q.Encode()
		}
		honest.ServeHTTP(w, r)
	})
	ts2 := httptest.NewServer(short)
	defer ts2.Close()
	entries, sth, err := NewClient(ts2.URL, ts2.Client()).Scrape(ctx, ScrapeOptions{})
	if err != nil || uint64(len(entries)) != sth.Size || sth.Size != l.Size() {
		t.Fatalf("Scrape over one-entry pages = %d entries of %d, %v", len(entries), sth.Size, err)
	}
}

// pagesOf serves get-entries pages of at most n entries, as a log may.
func pagesOf(n int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/ct/v1/get-entries" {
			q := r.URL.Query()
			start, _ := strconv.Atoi(q.Get("start"))
			end, _ := strconv.Atoi(q.Get("end"))
			q.Set("end", strconv.Itoa(min(end, start+n-1)))
			r.URL.RawQuery = q.Encode()
		}
		h.ServeHTTP(w, r)
	})
}

// TestScrapePagesStopsOnCallbackError: the callback's error ends the round
// and comes back unwrapped, after exactly the pages delivered so far.
func TestScrapePagesStopsOnCallbackError(t *testing.T) {
	l := variedLog(t)
	ts := httptest.NewServer(pagesOf(8, NewServer(l).Handler()))
	defer ts.Close()
	stop := errors.New("enough")
	var seen []uint64
	client := NewClient(ts.URL, ts.Client())
	sth, err := client.GetSTH(context.Background())
	if err != nil || sth.Size != l.Size() {
		t.Fatalf("get-sth = size %d of %d, %v", sth.Size, l.Size(), err)
	}
	err = client.ScrapePages(context.Background(), sth, ScrapeOptions{},
		func(page []Entry) error {
			seen = append(seen, page[0].Index)
			if len(seen) == 3 {
				return stop
			}
			return nil
		})
	if err != stop || !reflect.DeepEqual(seen, []uint64{0, 8, 16}) {
		t.Fatalf("ScrapePages = %v after pages at %v", err, seen)
	}
}

// TestAddChainRejectsUndecodableCertificate: the leaf bytes are the log's
// only copy of an entry, so a certificate whose encoding does not decode is
// refused at the door instead of failing every later read of its page.
func TestAddChainRejectsUndecodableCertificate(t *testing.T) {
	l := New("strict", Shard{})
	good := testCert(t, 1, "ok.example.com", 10, 400)
	if _, err := l.AddChain(good, 100); err != nil {
		t.Fatal(err)
	}
	inverted := good.Clone()
	inverted.NotBefore, inverted.NotAfter = 400, 10
	for name, c := range map[string]*x509sim.Certificate{
		"no-san":            {Serial: 2, Issuer: 1, Key: 2, NotBefore: 10, NotAfter: 400},
		"inverted-validity": inverted,
		"long-san":          {Serial: 3, Issuer: 1, Key: 3, Names: []string{strings.Repeat("a", 300) + ".com"}, NotBefore: 10, NotAfter: 400},
	} {
		if _, err := l.AddChain(c, 100); !errors.Is(err, ErrRejected) {
			t.Errorf("%s: AddChain = %v, want ErrRejected", name, err)
		}
	}
	if got, err := l.Entries(0, l.Size()-1); err != nil || len(got) != 1 {
		t.Fatalf("Entries after the refusals = %d entries, %v", len(got), err)
	}
}
