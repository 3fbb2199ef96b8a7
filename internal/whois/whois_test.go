package whois

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"reflect"
	"strings"
	"sync/atomic"
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
	_, addr := startRegistry(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rec, err := Query(ctx, addr, "wire.com")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Domain != "wire.com" || rec.Created != 200 {
		t.Fatalf("record = %+v", rec)
	}
	if _, err := Query(ctx, addr, "absent.com"); !errors.Is(err, ErrNoMatch) {
		t.Fatalf("no-match: %v", err)
	}
	if _, err := Query(ctx, addr, "bad query!"); err == nil {
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

// startRegistry serves wire.com from a registry; tune adjusts the server
// before it starts.
func startRegistry(t testing.TB, tune func(*Server)) (*Server, string) {
	t.Helper()
	reg := registry.New("com")
	if _, err := reg.Register("wire.com", "alice", "GoDaddy", 200, 1); err != nil {
		t.Fatal(err)
	}
	srv := NewServer(&RegistrySource{Registry: reg})
	if tune != nil {
		tune(srv)
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv, addr.String()
}

// accepting listens on loopback, counts what it accepts and hands each
// connection to serve.
func accepting(t *testing.T, serve func(net.Conn)) (string, *atomic.Int32) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = ln.Close() })
	accepted := new(atomic.Int32)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			accepted.Add(1)
			go serve(conn)
		}
	}()
	return ln.Addr().String(), accepted
}

// relay forwards every connection it accepts to addr: its count is the
// number of connections a client opened.
func relay(t *testing.T, addr string) (string, *atomic.Int32) {
	return accepting(t, func(in net.Conn) {
		defer in.Close()
		out, err := net.Dial("tcp", addr)
		if err != nil {
			return
		}
		defer out.Close()
		go func() {
			_, _ = io.Copy(out, in)
			_ = out.Close()
		}()
		_, _ = io.Copy(in, out)
	})
}

func queriesServed() uint64 {
	return mQueryOK.Value() + mQueryNoMatch.Value() + mQueryInvalid.Value()
}

// TestClientKeepsOneConnection: a thousand queries from one goroutine, found
// and not, travel on one connection, and the server counts every one.
func TestClientKeepsOneConnection(t *testing.T) {
	_, addr := startRegistry(t, nil)
	proxied, dials := relay(t, addr)
	c := &Client{Addr: proxied}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	before := queriesServed()
	for i := 0; i < 1000; i++ {
		if i%2 == 0 {
			if rec, err := c.Query(ctx, "wire.com"); err != nil || rec.Created != 200 {
				t.Fatalf("query %d = %+v, %v", i, rec, err)
			}
		} else if _, err := c.Query(ctx, "absent.com"); !errors.Is(err, ErrNoMatch) {
			t.Fatalf("query %d: %v, want ErrNoMatch", i, err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("1000 queries opened %d connections, want 1", n)
	}
	if n := queriesServed() - before; n != 1000 {
		t.Fatalf("whois_queries_total moved by %d, want 1000", n)
	}
}

// TestClientRedialsOnceAfterIdleClose: the server hangs up on a kept
// connection that waits past its deadline; the next query redials, once, and
// answers. When the fresh connection fails too, that failure is the answer.
func TestClientRedialsOnceAfterIdleClose(t *testing.T) {
	srv, addr := startRegistry(t, func(s *Server) { s.timeout = 50 * time.Millisecond })
	proxied, dials := relay(t, addr)
	c := &Client{Addr: proxied}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Query(ctx, "wire.com"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.idle[0].r.Peek(1); err != io.EOF {
		t.Fatalf("idle kept connection: %v, want the server's hang-up", err)
	}
	if rec, err := c.Query(ctx, "wire.com"); err != nil || rec.Domain != "wire.com" {
		t.Fatalf("query after the idle close = %+v, %v", rec, err)
	}
	if n := dials.Load(); n != 2 {
		t.Fatalf("%d connections, want the first and one redial", n)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, "wire.com"); err == nil {
		t.Fatal("query against a closed server answered")
	}
	if n := dials.Load(); n != 3 {
		t.Fatalf("%d connections, want one redial after the cut and no retry of the fresh one", n)
	}
}

// TestClientRefusesAnswersOutOfStep: an answer on a kept stream that does not
// belong to its query fails the query, and its connection is dropped rather
// than kept for the next one.
func TestClientRefusesAnswersOutOfStep(t *testing.T) {
	format := func(domain string) string {
		return Record{Domain: domain, Registrar: "r", Created: 700, Expires: 900, Status: "ok"}.Format() + "\n"
	}
	cases := []struct {
		name string
		// answer is what the server sends for the query of domain, after
		// the previous query of prev ("" on a fresh connection).
		answer func(prev, domain string) string
		// first tells whether the first query on a connection is answered;
		// refusal is what the client says of the second.
		first   bool
		refusal string
	}{
		{"another domain", func(_, _ string) string { return format("somebody-else.com") }, false, "answered for"},
		// The first query is answered twice, the repeat arriving in the
		// second query's place.
		{"twice, the repeat late", func(prev, domain string) string {
			if prev == "" {
				return format(domain)
			}
			return format(prev)
		}, true, `answered for "one.com"`},
		{"twice at once", func(_, domain string) string { return format(domain) + format(domain) }, false, "bytes after the answer"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr, accepted := accepting(t, func(conn net.Conn) {
				defer conn.Close()
				r, prev := bufio.NewReader(conn), ""
				for {
					line, err := r.ReadString('\n')
					domain, kept := strings.CutPrefix(strings.TrimSpace(line), "-k ")
					if err != nil || !kept {
						return
					}
					if _, err := io.WriteString(conn, tc.answer(prev, domain)); err != nil {
						return
					}
					prev = domain
				}
			})
			c := &Client{Addr: addr}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if rec, err := c.Query(ctx, "one.com"); (err == nil) != tc.first || err == nil && rec.Domain != "one.com" {
				t.Fatalf("first query = %+v, %v", rec, err)
			}
			rec, err := c.Query(ctx, "two.com")
			if err == nil || !strings.Contains(err.Error(), tc.refusal) {
				t.Fatalf("query out of step = %+v, %v; want an error saying %q", rec, err, tc.refusal)
			}
			if len(c.idle) != 0 {
				t.Fatalf("the connection that answered out of step is kept (%v)", err)
			}
			want := int32(1)
			if !tc.first {
				want = 2
			}
			if n := accepted.Load(); n != want {
				t.Fatalf("%d connections, want %d: a refused answer drops its connection", n, want)
			}
		})
	}
}

// TestCloseCutsIdleKeptConnections: connections waiting for their next query
// do not hold Close for the 10 s query deadline.
func TestCloseCutsIdleKeptConnections(t *testing.T) {
	srv, addr := startRegistry(t, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for i := 0; i < 4; i++ {
		if _, err := (&Client{Addr: addr}).Query(ctx, "wire.com"); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Close took %v with four idle kept connections", d)
	}
}

// TestServerWire: -k answers end in an empty line and keep the connection;
// a plain query is answered as RFC 3912 has it, and the server hangs up.
func TestServerWire(t *testing.T) {
	_, addr := startRegistry(t, nil)
	rec := Record{Domain: "wire.com", Registrar: "GoDaddy", Created: 200, Expires: 565, Status: "ok"}.Format()
	for _, tc := range []struct{ send, want string }{
		{"wire.com\r\n", rec},
		{"-k wire.com\r\n-k absent.com\r\n-k bad query!\r\nwire.com\r\n-k wire.com\r\n",
			rec + "\n" + NotFoundResponse + "\n" + "Invalid query.\n\n" + rec},
	} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := io.WriteString(conn, tc.send); err != nil {
			t.Fatal(err)
		}
		got, err := io.ReadAll(conn)
		conn.Close()
		if err != nil || string(got) != tc.want {
			t.Fatalf("sent %q, got %q (%v), want %q and a hang-up", tc.send, got, err, tc.want)
		}
	}
}

// FuzzKeptAnswer: whatever a server sends after a -k query, ask does not
// panic, accepts no record for a domain other than the one asked, and reads
// no more than the 64 KiB answer cap and its reader's 4 KiB buffer, even from
// a server that never stops sending (endless).
func FuzzKeptAnswer(f *testing.F) {
	f.Fuzz(func(t *testing.T, answer []byte, endless bool) {
		if endless && len(answer) > 0 {
			answer = bytes.Repeat(answer, 4096/len(answer)+1)
		}
		client, server := net.Pipe()
		sent := make(chan int, 1)
		go func() {
			defer server.Close()
			n := 0
			if _, err := bufio.NewReader(server).ReadString('\n'); err == nil {
				for more := true; more; more = endless && len(answer) > 0 {
					m, err := server.Write(answer)
					if n += m; err != nil {
						break
					}
				}
			}
			sent <- n
		}()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		rec, _, err := (&keptConn{client, bufio.NewReader(client)}).ask(ctx, "Asked.COM.")
		client.Close()
		if err == nil && rec.Domain != "asked.com" {
			t.Fatalf("accepted a record for %q, asked asked.com", rec.Domain)
		}
		if n := <-sent; n > maxAnswer+4096 {
			t.Fatalf("read %d bytes of one answer", n)
		}
	})
}

// BenchmarkQuery is one lookup against an in-process server over loopback:
// oneshot dials, asks and is hung up on (RFC 3912); kept asks on a
// connection a Client keeps open with -k.
func BenchmarkQuery(b *testing.B) {
	_, addr := startRegistry(b, nil)
	ctx := context.Background()
	c := &Client{Addr: addr}
	for _, bc := range []struct {
		name  string
		query func() (Record, error)
	}{
		{"oneshot", func() (Record, error) { return Query(ctx, addr, "wire.com") }},
		{"kept", func() (Record, error) { return c.Query(ctx, "wire.com") }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bc.query(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
