package whois

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"stalecert/internal/registry"
	"stalecert/internal/simtime"
)

func TestFormatParseRoundTrip(t *testing.T) {
	r := Record{
		Domain:      "example.com",
		Registrar:   "GoDaddy.com, LLC",
		Created:     simtime.MustParse("2016-03-10"),
		Expires:     simtime.MustParse("2017-03-10"),
		Status:      "ok",
		NameServers: []string{"ns1.hoster.net", "ns2.hoster.net"},
	}
	got, err := Parse(r.Format())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, r)
	}
}

func TestParseToleratesUnknownLinesAndCase(t *testing.T) {
	text := "Some-Banner: hello\nDomain Name: EXAMPLE.COM\nRandom: junk\nCreation Date: 2019-05-01T00:00:00Z\n"
	got, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	if got.Domain != "example.com" || got.Created != simtime.MustParse("2019-05-01") {
		t.Fatalf("parsed = %+v", got)
	}
}

func TestParseBareDates(t *testing.T) {
	got, err := Parse("Domain Name: a.com\nCreation Date: 2020-01-02\n")
	if err != nil {
		t.Fatal(err)
	}
	if got.Created != simtime.MustParse("2020-01-02") {
		t.Fatalf("created = %v", got.Created)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"Creation Date: 2020-01-01\n",            // no domain
		"Domain Name: a.com\n",                   // no creation date
		"Domain Name: a.com\nCreation Date: x\n", // bad date
		"Domain Name: a b.com\nCreation Date: 2020-01-01\n",                      // not a DNS name
		"Domain Name: a.com\nCreation Date: 2020-01-01\nName Server: \xff.net\n", // nor this (FuzzParse)
	}
	for _, text := range cases {
		if _, err := Parse(text); err == nil {
			t.Errorf("Parse(%q) accepted", text)
		}
	}
}

func TestRegistrySource(t *testing.T) {
	reg := registry.New("com")
	if _, err := reg.Register("alive.com", "alice", "NameCheap", 100, 1); err != nil {
		t.Fatal(err)
	}
	src := &RegistrySource{Registry: reg, NameServers: func(string) []string { return []string{"ns1.x.net"} }}
	rec, ok := src.WhoisLookup("alive.com")
	if !ok || rec.Created != 100 || rec.Status != "ok" || len(rec.NameServers) != 1 {
		t.Fatalf("lookup = %+v %v", rec, ok)
	}
	if _, ok := src.WhoisLookup("dead.com"); ok {
		t.Fatal("unregistered domain found")
	}
	reg.Tick(500) // grace
	rec, _ = src.WhoisLookup("alive.com")
	if rec.Status != "autoRenewPeriod" {
		t.Fatalf("status = %q", rec.Status)
	}
}

func TestServerClientEndToEnd(t *testing.T) {
	reg := registry.New("com")
	if _, err := reg.Register("wire.com", "alice", "GoDaddy", 200, 1); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(&RegistrySource{Registry: reg})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rec, err := Query(ctx, addr.String(), "wire.com")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Domain != "wire.com" || rec.Created != 200 {
		t.Fatalf("record = %+v", rec)
	}
	if _, err := Query(ctx, addr.String(), "absent.com"); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("no-match: %v", err)
	}
	if _, err := Query(ctx, addr.String(), "bad query!"); err == nil {
		t.Fatal("invalid query accepted")
	}
}

// answerWith is a registry that answers every query with one fixed record.
type answerWith Record

func (a answerWith) WhoisLookup(string) (Record, bool) { return Record(a), true }

// TestQueryRejectsAnotherDomainsRecord: the caller dates a registrant change
// on the domain it asked about, so a record for any other domain is an error,
// whatever case or trailing dot the query was spelled with.
func TestQueryRejectsAnotherDomainsRecord(t *testing.T) {
	srv := NewServer(answerWith{Domain: "somebody-else.com", Registrar: "r", Created: 700, Expires: 900, Status: "ok"})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if rec, err := Query(ctx, addr.String(), "asked.com"); err == nil {
		t.Fatalf("Query(asked.com) accepted %+v", rec)
	}
	rec, err := Query(ctx, addr.String(), "Somebody-Else.COM.")
	if err != nil || rec.Domain != "somebody-else.com" || rec.Created != 700 {
		t.Fatalf("Query in another spelling = %+v, %v", rec, err)
	}
}

func TestArchiveReRegistrations(t *testing.T) {
	a := NewArchive()
	// Daily observations: same creation date repeated, then a re-registration.
	for day := 0; day < 5; day++ {
		a.Observe("stable.com", 100)
		a.Observe("flipped.com", 100)
	}
	for day := 0; day < 5; day++ {
		a.Observe("flipped.com", 600) // re-registered
	}
	a.Observe("thrice.com", 10)
	a.Observe("thrice.com", 500)
	a.Observe("thrice.com", 900)

	if a.Rows() != 18 {
		t.Fatalf("rows = %d", a.Rows())
	}
	if a.Domains() != 3 {
		t.Fatalf("domains = %d", a.Domains())
	}
	if got := a.CreationDates("flipped.com"); len(got) != 2 || got[0] != 100 || got[1] != 600 {
		t.Fatalf("dates = %v", got)
	}
	events := a.ReRegistrations()
	if len(events) != 3 {
		t.Fatalf("events = %+v", events)
	}
	if events[0].Domain != "flipped.com" || events[0].NewCreation != 600 || events[0].PrevCreation != 100 {
		t.Fatalf("event[0] = %+v", events[0])
	}
	if events[1].Domain != "thrice.com" || events[2].NewCreation != 900 {
		t.Fatalf("thrice events = %+v", events[1:])
	}
}

func TestArchiveOutOfOrderObservations(t *testing.T) {
	a := NewArchive()
	// Observations can arrive out of order (bulk dataset merges sources);
	// creation-date ordering must still be chronological.
	a.Observe("x.com", 900)
	a.Observe("x.com", 100)
	a.Observe("x.com", 500)
	got := a.CreationDates("x.com")
	want := []simtime.Day{100, 500, 900}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("dates = %v", got)
	}
}

func TestQuickArchiveDatesSortedUnique(t *testing.T) {
	f := func(days []int16) bool {
		a := NewArchive()
		for _, d := range days {
			a.Observe("p.com", simtime.Day(d))
		}
		dates := a.CreationDates("p.com")
		for i := 1; i < len(dates); i++ {
			if dates[i] <= dates[i-1] {
				return false
			}
		}
		return len(a.ReRegistrations()) == max(0, len(dates)-1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFormatParseRoundTrip(t *testing.T) {
	f := func(created, expires int16, nsCount uint8) bool {
		r := Record{
			Domain:    "prop.com",
			Registrar: "R",
			Created:   simtime.Day(created),
			Expires:   simtime.Day(expires),
			Status:    "ok",
		}
		for i := 0; i < int(nsCount)%4; i++ {
			r.NameServers = append(r.NameServers, "ns"+string(rune('a'+i))+".x.net")
		}
		got, err := Parse(r.Format())
		return err == nil && reflect.DeepEqual(r, got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// FuzzParse: a WHOIS response is text from whoever answers on port 43. Parse
// never panics, and a record it accepts survives its own codec: formatting it
// and parsing that yields the same record.
func FuzzParse(f *testing.F) {
	f.Add(Record{Domain: "example.com", Registrar: "GoDaddy.com, LLC", Created: 1164, Expires: 1529, Status: "ok",
		NameServers: []string{"ns1.hoster.net", "ns2.hoster.net"}}.Format())
	f.Add(NotFoundResponse)
	f.Fuzz(func(t *testing.T, text string) {
		rec, err := Parse(text)
		if err != nil {
			return
		}
		again, err := Parse(rec.Format())
		if err != nil || !reflect.DeepEqual(again, rec) {
			t.Fatalf("Parse(Format(rec)) = %+v, %v; rec = %+v", again, err, rec)
		}
	})
}
