package evidence

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"stalecert/internal/core"
	"stalecert/internal/crl"
	"stalecert/internal/dnssim"
	"stalecert/internal/monitor"
	"stalecert/internal/obs"
	"stalecert/internal/resil"
	"stalecert/internal/simtime"
	"stalecert/internal/whois"
	"stalecert/internal/x509sim"
)

const (
	rigDomains = 400
	rigNow     = simtime.Day(19000)
)

var rigCAs = []string{"CA1", "CA2", "CA3", "CA4"}

// whoisMap is a WHOIS source over a fixed set of records.
type whoisMap map[string]whois.Record

func (m whoisMap) WhoisLookup(domain string) (whois.Record, bool) {
	r, ok := m[domain]
	return r, ok
}

// rig is a seeded corpus with whoisd, dnsscand and crld equivalents serving
// its evidence in-process over loopback, and a Gatherer wired to all three.
// Some certificates have run out by rigNow, provider-managed ones among them,
// and the last domain holds none at all.
type rig struct {
	certs    []*x509sim.Certificate
	corpus   *core.Corpus
	domains  []string
	crlURL   string
	whoisSrv *whois.Server
	dnsStore *dnssim.Store
	dnsSrv   *dnssim.Server
	gather   *Gatherer
}

// asks says which remote sources a gather for the domain has a reason to ask,
// from the corpus alone: WHOIS when it holds a certificate, DNS when one of
// them carries the provider marker and is valid on rigNow.
func (r *rig) asks(domain string) (whoisAsked, dnsAsked bool) {
	certs := r.corpus.ByE2LD(domain)
	for _, c := range certs {
		if monitor.HasProviderMarker(c, monitor.MarkerSuffix) && c.ValidOn(rigNow) {
			dnsAsked = true
		}
	}
	return len(certs) > 0, dnsAsked
}

func newRig(tb testing.TB, seed int64) *rig {
	tb.Helper()
	rnd := rand.New(rand.NewSource(seed))
	var certs []*x509sim.Certificate
	records := whoisMap{}
	zone := dnssim.NewZone("com")
	auths := make([]*crl.Authority, len(rigCAs))
	for i, name := range rigCAs {
		auths[i] = crl.NewAuthority(name)
	}
	r := &rig{}
	serial := uint64(0)
	for d := 0; d < rigDomains; d++ {
		domain := fmt.Sprintf("site%04d.com", d)
		r.domains = append(r.domains, domain)
		for n := 1 + rnd.Intn(6); n > 0; n-- {
			serial++
			issuer := 1 + rnd.Intn(len(rigCAs))
			names := []string{domain, "www." + domain}
			if rnd.Intn(3) == 0 {
				names = append(names, fmt.Sprintf("sni%d.%s", serial, monitor.MarkerSuffix))
			}
			nb := rigNow - simtime.Day(30+rnd.Intn(300))
			na := nb + 398
			if rnd.Intn(3) == 0 {
				na = nb + 90 // most of these have expired by rigNow
			}
			c, err := x509sim.New(x509sim.SerialNumber(serial), x509sim.IssuerID(issuer), x509sim.KeyID(serial), names, nb, na)
			if err != nil {
				tb.Fatal(err)
			}
			certs = append(certs, c)
			if rnd.Intn(5) == 0 {
				// A second body under the same (issuer, serial): the CRL join
				// key does not tell them apart.
				twin, err := x509sim.New(c.Serial, c.Issuer, c.Key, append(names, "twin."+domain), nb, na)
				if err != nil {
					tb.Fatal(err)
				}
				certs = append(certs, twin)
			}
			if rnd.Intn(4) == 0 {
				// Mostly inside the validity window, sometimes before it.
				day := nb - 20 + simtime.Day(rnd.Intn(200))
				auths[issuer-1].Revoke(c.Issuer, c.Serial, day, crl.Reason(rnd.Intn(6)))
				if rnd.Intn(8) == 0 {
					// A second CA lists the same certificate on another day.
					auths[issuer%len(rigCAs)].Revoke(c.Issuer, c.Serial, day+1, crl.Superseded)
				}
			}
		}
		if rnd.Intn(2) == 0 {
			records[domain] = whois.Record{Domain: domain, Registrar: "r", Created: rigNow - simtime.Day(rnd.Intn(400)),
				Expires: rigNow + 365, Status: "ok"}
		}
		if rnd.Intn(2) == 0 {
			if err := zone.Add(dnssim.Record{Name: domain, Type: dnssim.TypeNS, TTL: 60, Data: "amy.ns.cloudflare.com"}); err != nil {
				tb.Fatal(err)
			}
		}
	}
	// A registered, undelegated domain the corpus holds nothing for.
	r.domains = append(r.domains, "nocerts.com")
	records["nocerts.com"] = whois.Record{Domain: "nocerts.com", Registrar: "r", Created: rigNow - 100, Expires: rigNow + 365, Status: "ok"}
	// Revocations of certificates the corpus has never seen.
	for i := 0; i < 2000; i++ {
		auths[i%len(auths)].Revoke(x509sim.IssuerID(1+i%len(auths)), x509sim.SerialNumber(1_000_000+i), rigNow-10, crl.Unspecified)
	}
	r.certs = certs
	r.corpus = core.NewCorpus(certs, core.CorpusOptions{})

	crlSrv := crl.NewServer(seed)
	crlSrv.SetNow(rigNow)
	for _, a := range auths {
		crlSrv.Host(a, 0)
	}
	crlTS := httptest.NewServer(crlSrv.Handler())
	tb.Cleanup(crlTS.Close)
	r.crlURL = crlTS.URL

	r.whoisSrv = whois.NewServer(records)
	whoisAddr, err := r.whoisSrv.Start("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = r.whoisSrv.Close() })

	r.dnsStore = dnssim.NewStore()
	r.dnsStore.AddZone(zone)
	r.dnsSrv = dnssim.NewServer(r.dnsStore)
	dnsAddr, err := r.dnsSrv.Start("127.0.0.1:0")
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { _ = r.dnsSrv.Close() })

	r.gather = &Gatherer{
		Index:    r.corpus,
		Whois:    &whois.Client{Addr: whoisAddr.String()},
		Resolver: &dnssim.Resolver{ServerAddr: dnsAddr.String(), Timeout: 2 * time.Second},
		CRL:      &crl.Snapshot{Fetcher: &crl.Fetcher{Base: crlTS.URL}, Names: rigCAs, Service: "evidence-test"},
		Now:      rigNow,
	}
	return r
}

// TestGatherVerdictsEqualFlatCRLVerdicts: for every domain of a seeded
// corpus, DomainStaleness over the gatherer's evidence — revocations narrowed
// to the domain by the snapshot join — equals DomainStaleness over the same
// evidence carrying the flat concatenation of every CA's CRL, which is what
// the per-request gatherer used to pass.
func TestGatherVerdictsEqualFlatCRLVerdicts(t *testing.T) {
	r := newRig(t, 7)
	ctx := context.Background()
	lists, err := (&crl.Fetcher{Base: r.crlURL}).FetchAll(ctx, rigCAs)
	if err != nil || len(lists) != len(rigCAs) {
		t.Fatalf("flat fetch: %d lists, %v", len(lists), err)
	}
	var flat []crl.Entry
	for _, name := range rigCAs {
		flat = append(flat, lists[name].Entries...)
	}

	byMethod := map[core.Method]int{}
	narrowed := 0
	for _, domain := range r.domains {
		ev, err := r.gather.Gather(ctx, domain)
		if err != nil {
			t.Fatalf("Gather %s: %v", domain, err)
		}
		narrowed += len(ev.Revocations)
		got := core.DomainStaleness(r.corpus, domain, ev)
		ev.Revocations = flat
		want := core.DomainStaleness(r.corpus, domain, ev)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: snapshot-joined verdict differs from the flat-CRL verdict:\n got %v\nwant %v", domain, got, want)
		}
		for _, s := range got {
			byMethod[s.Method]++
		}
	}
	for _, m := range []core.Method{core.MethodRevocation, core.MethodRegistrantChange, core.MethodManagedTLS} {
		if byMethod[m] == 0 {
			t.Errorf("no %v verdict in the corpus: the comparison does not cover it (%v)", m, byMethod)
		}
	}
	if narrowed == 0 || narrowed >= len(flat) {
		t.Errorf("gathered %d revocation entries over all domains against %d in the flat set", narrowed, len(flat))
	}
}

// askEverything is the gather this package used to do: every configured
// source asked for every domain, whatever the domain holds. The revocations
// are passed in; they never depended on what was asked.
func (r *rig) askEverything(ctx context.Context, domain string, revocations []crl.Entry) (core.DomainEvidence, error) {
	ev := core.DomainEvidence{Revocations: revocations, RevocationCutoff: simtime.NoDay,
		IsManaged: func(c *x509sim.Certificate) bool { return monitor.HasProviderMarker(c, monitor.MarkerSuffix) }}
	rec, err := whois.Query(ctx, r.gather.Whois.Addr, domain)
	switch {
	case err == nil:
		ev.ReRegistrations = []whois.ReRegistration{{Domain: domain, NewCreation: rec.Created}}
	case !errors.Is(err, whois.ErrNoMatch):
		return ev, err
	}
	delegated, err := monitor.ProviderDelegated(ctx, r.gather.Resolver, domain)
	if err == nil && !delegated {
		ev.Departures = []dnssim.Departure{{Domain: domain, LastSeen: rigNow - 1, FirstGone: rigNow}}
	}
	return ev, err
}

// served sums the in-process servers' own query counters over every outcome
// they label: whois_queries_total by outcome, dns_queries_total by rcode.
func served(family, label string, values ...string) (n uint64) {
	for _, v := range values {
		n += obs.Default().Counter(family, label, v).Value()
	}
	return n
}

func whoisServed() uint64 {
	return served("whois_queries_total", "outcome", "ok", "no_match", "invalid")
}

func dnsServed() uint64 {
	return served("dns_queries_total", "rcode", "NOERROR", "FORMERR", "SERVFAIL", "NXDOMAIN", "NOTIMP", "REFUSED", "malformed")
}

// TestGatherVerdictsEqualAskEverythingVerdicts: for every domain of seeded
// corpora, the verdict over what Gather collected equals the verdict over
// evidence from asking every source, and the servers' own counters show the
// registry asked exactly for the domains that hold a certificate and DNS
// exactly for those holding a provider-managed one valid on rigNow.
func TestGatherVerdictsEqualAskEverythingVerdicts(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []int64{7, 8, 9} {
		r := newRig(t, seed)
		byMethod := map[core.Method]int{}
		whoisOnly, both, neither, lapsedOnly := 0, 0, 0, 0
		for _, domain := range r.domains {
			whoisBefore, dnsBefore := whoisServed(), dnsServed()
			ev, err := r.gather.Gather(ctx, domain)
			if err != nil {
				t.Fatalf("seed %d: Gather %s: %v", seed, domain, err)
			}
			whoisAsked, dnsAsked := whoisServed() > whoisBefore, dnsServed() > dnsBefore
			wantWhois, wantDNS := r.asks(domain)
			if whoisAsked != wantWhois || dnsAsked != wantDNS {
				t.Fatalf("seed %d %s: asked WHOIS %v, DNS %v; its certificates call for WHOIS %v, DNS %v",
					seed, domain, whoisAsked, dnsAsked, wantWhois, wantDNS)
			}
			switch {
			case wantDNS:
				both++
			case wantWhois:
				whoisOnly++
				for _, c := range r.corpus.ByE2LD(domain) {
					if monitor.HasProviderMarker(c, monitor.MarkerSuffix) {
						lapsedOnly++ // managed, but nothing managed is still valid
						break
					}
				}
			default:
				neither++
			}

			all, err := r.askEverything(ctx, domain, ev.Revocations)
			if err != nil {
				t.Fatalf("seed %d: asking every source for %s: %v", seed, domain, err)
			}
			got, want := core.DomainStaleness(r.corpus, domain, ev), core.DomainStaleness(r.corpus, domain, all)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d %s: verdict differs from the ask-everything verdict:\n got %v\nwant %v", seed, domain, got, want)
			}
			for _, s := range got {
				byMethod[s.Method]++
			}
		}
		for _, m := range []core.Method{core.MethodRevocation, core.MethodRegistrantChange, core.MethodManagedTLS} {
			if byMethod[m] == 0 {
				t.Errorf("seed %d: no %v verdict in the corpus: the comparison does not cover it (%v)", seed, m, byMethod)
			}
		}
		if whoisOnly == 0 || both == 0 || neither == 0 || lapsedOnly == 0 {
			t.Errorf("seed %d: %d domains ask WHOIS alone (%d of them with lapsed managed certificates only), %d both, %d nothing: each case must occur",
				seed, whoisOnly, lapsedOnly, both, neither)
		}
	}
}

// TestGatherRunsWhoisAndDNSConcurrently: the WHOIS answer is held until the
// DNS server has been asked and the DNS answer until WHOIS has been asked, so
// a gatherer that ran the two in turn, in either order, would time out.
func TestGatherRunsWhoisAndDNSConcurrently(t *testing.T) {
	whoisAsked, dnsAsked := make(chan struct{}), make(chan struct{})
	var whoisOnce, dnsOnce sync.Once

	whoisSrv := whois.NewServer(sourceFunc(func(domain string) (whois.Record, bool) {
		whoisOnce.Do(func() { close(whoisAsked) })
		<-dnsAsked
		return whois.Record{Domain: domain, Created: 100, Expires: 900, Status: "ok"}, true
	}))
	whoisAddr, err := whoisSrv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer whoisSrv.Close()

	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer pc.Close()
	go func() {
		buf := make([]byte, 4096)
		for {
			n, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			req, err := dnssim.Unmarshal(buf[:n])
			if err != nil {
				continue
			}
			dnsOnce.Do(func() { close(dnsAsked) })
			<-whoisAsked
			resp := &dnssim.Message{Header: dnssim.Header{ID: req.ID, Response: true, RCode: dnssim.RCodeNXDomain},
				Questions: req.Questions}
			if raw, err := resp.Marshal(); err == nil {
				_, _ = pc.WriteTo(raw, from)
			}
		}
	}()

	managed, err := x509sim.New(1, 1, 1, []string{"overlap.com", "sni1." + monitor.MarkerSuffix}, rigNow-30, rigNow+30)
	if err != nil {
		t.Fatal(err)
	}
	g := &Gatherer{
		Index:    core.NewCorpus([]*x509sim.Certificate{managed}, core.CorpusOptions{}),
		Whois:    &whois.Client{Addr: whoisAddr.String()},
		Resolver: &dnssim.Resolver{ServerAddr: pc.LocalAddr().String(), Timeout: time.Second},
		Now:      rigNow,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	ev, err := g.Gather(ctx, "overlap.com")
	if err != nil {
		t.Fatalf("Gather: %v (WHOIS and DNS did not overlap)", err)
	}
	if len(ev.ReRegistrations) != 1 || len(ev.Departures) != 1 {
		t.Fatalf("evidence = %+v, want one re-registration and one departure", ev)
	}
}

type sourceFunc func(domain string) (whois.Record, bool)

func (f sourceFunc) WhoisLookup(domain string) (whois.Record, bool) { return f(domain) }

// TestGatherFailsWhenACAHasNeverLoaded: a distribution point that 403s one CA
// from the start must surface as an evidence error, not as a verdict computed
// without that CA's revocations.
func TestGatherFailsWhenACAHasNeverLoaded(t *testing.T) {
	auth := crl.NewAuthority("Open")
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/crl/Open" {
			http.Error(w, "automated access denied", http.StatusForbidden)
			return
		}
		_, _ = w.Write(auth.Snapshot(rigNow).Marshal())
	}))
	defer ts.Close()
	g := &Gatherer{
		Index: core.NewCorpus(nil, core.CorpusOptions{}),
		CRL: &crl.Snapshot{
			Fetcher: &crl.Fetcher{Base: ts.URL, Attempts: 2},
			Names:   []string{"Open", "Walled"},
		},
	}
	_, err := g.Gather(context.Background(), "any.com")
	if err == nil || !strings.Contains(err.Error(), "Walled") {
		t.Fatalf("Gather = %v, want an error naming the CA that never loaded", err)
	}
}

// classes sorts the rig's domains by what a gather asks for them: managed
// (WHOIS and DNS), unmanaged (WHOIS only), and nocerts, made-up names the
// index has never seen.
func (r *rig) classes() map[string][]string {
	classes := map[string][]string{}
	for i, domain := range r.domains {
		switch whoisAsked, dnsAsked := r.asks(domain); {
		case dnsAsked:
			classes["managed"] = append(classes["managed"], domain)
		case whoisAsked:
			classes["unmanaged"] = append(classes["unmanaged"], domain)
		}
		classes["nocerts"] = append(classes["nocerts"], fmt.Sprintf("absent%04d.com", i))
	}
	return classes
}

// TestKeptAnswersAreReusedUntilMaxAge: with MaxAge set, a second gather of
// a domain asks no server and yields the verdict the first did, dated to the
// first's fetch; once the clock passes MaxAge, one more gather leaves exactly
// its own answer kept. A gather that asks nothing is undated.
func TestKeptAnswersAreReusedUntilMaxAge(t *testing.T) {
	r := newRig(t, 7)
	ctx := context.Background()
	clock := resil.NewFakeClock(time.Unix(1_700_000_000, 0))
	r.gather.MaxAge, r.gather.Clock = 5*time.Second, clock
	t0 := clock.Now()
	classes := r.classes()
	domains := append(classes["unmanaged"][:20:20], classes["managed"][:20]...)
	first := map[string][]core.StaleCert{}
	for _, d := range domains {
		ev, err := r.gather.Gather(ctx, d)
		if err != nil || !ev.ObservedAt.Equal(t0) {
			t.Fatalf("first gather of %s: ObservedAt %v, %v; want t0", d, ev.ObservedAt, err)
		}
		first[d] = core.DomainStaleness(r.corpus, d, ev)
	}
	if n := len(r.gather.answers); n != 60 {
		t.Fatalf("%d answers kept after 20 WHOIS-only and 20 WHOIS+DNS gathers, want 60", n)
	}
	clock.Advance(5*time.Second - time.Nanosecond)
	whoisBefore, dnsBefore := whoisServed(), dnsServed()
	for _, d := range domains {
		ev, err := r.gather.Gather(ctx, d)
		if err != nil || !ev.ObservedAt.Equal(t0) {
			t.Fatalf("second gather of %s: ObservedAt %v, %v; want t0", d, ev.ObservedAt, err)
		}
		if got := core.DomainStaleness(r.corpus, d, ev); !reflect.DeepEqual(got, first[d]) {
			t.Fatalf("%s from kept answers:\n got %v\nwant %v", d, got, first[d])
		}
	}
	if whoisServed() != whoisBefore || dnsServed() != dnsBefore {
		t.Fatalf("gathers within MaxAge asked whoisd %d and dnsscand %d times, want none",
			whoisServed()-whoisBefore, dnsServed()-dnsBefore)
	}
	if ev, _ := r.gather.Gather(ctx, classes["nocerts"][0]); !ev.ObservedAt.IsZero() {
		t.Fatalf("a gather that asked nothing is dated %v", ev.ObservedAt)
	}

	clock.Advance(time.Nanosecond)
	d := classes["unmanaged"][20]
	if ev, err := r.gather.Gather(ctx, d); err != nil || !ev.ObservedAt.Equal(clock.Now()) {
		t.Fatalf("gather of %s past MaxAge: ObservedAt %v, %v; want now", d, ev.ObservedAt, err)
	}
	if len(r.gather.answers) != 1 || len(r.gather.kept) != 1 {
		t.Fatalf("past MaxAge one gather leaves %d answers, %d in fetch order; want 1 and 1", len(r.gather.answers), len(r.gather.kept))
	}
}

// TestConcurrentGathersKeepAnswersConsistent: gathers on eight goroutines
// store, reuse and expire answers while the clock moves past MaxAge, and each
// yields the verdict a lone gather did.
func TestConcurrentGathersKeepAnswersConsistent(t *testing.T) {
	r := newRig(t, 7)
	ctx := context.Background()
	clock := resil.NewFakeClock(time.Unix(1_700_000_000, 0))
	r.gather.MaxAge, r.gather.Clock = 3*time.Second, clock
	domains := r.domains[:60]
	want := map[string][]core.StaleCert{}
	for _, d := range domains {
		ev, err := r.gather.Gather(ctx, d)
		if err != nil {
			t.Fatal(err)
		}
		want[d] = core.DomainStaleness(r.corpus, d, ev)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3*len(domains); i++ {
				d := domains[(i*7+w)%len(domains)]
				ev, err := r.gather.Gather(ctx, d)
				if err != nil {
					t.Error(err)
					return
				}
				if got := core.DomainStaleness(r.corpus, d, ev); !reflect.DeepEqual(got, want[d]) {
					t.Errorf("%s: got %v, want %v", d, got, want[d])
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		clock.Advance(time.Second)
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
}

// TestReusedGatherAllocCeiling caps a gather served from kept answers one
// above what it costs today (5 and 6: the index read, the snapshot join's
// map and slice), and checks it touches no socket.
func TestReusedGatherAllocCeiling(t *testing.T) {
	r := newRig(t, 7)
	ctx := context.Background()
	r.gather.MaxAge = time.Hour
	classes := r.classes()
	for class, ceiling := range map[string]float64{"unmanaged": 6, "managed": 7} {
		d := classes[class][0]
		if _, err := r.gather.Gather(ctx, d); err != nil {
			t.Fatal(err)
		}
		whoisBefore, dnsBefore := whoisServed(), dnsServed()
		if got := testing.AllocsPerRun(200, func() { _, _ = r.gather.Gather(ctx, d) }); got > ceiling {
			t.Errorf("%s: a reused gather allocates %.0f times, ceiling %.0f", class, got, ceiling)
		}
		if whoisServed() != whoisBefore || dnsServed() != dnsBefore {
			t.Errorf("%s: a reused gather asked a server", class)
		}
	}
}

// BenchmarkGather is one cache miss's evidence work against in-process
// whoisd, dnsscand and crld equivalents, by what the domain holds: unmanaged
// (certificates, none provider-managed and valid) is a WHOIS dial and the
// snapshot join; managed adds the DNS delegation questions, concurrently;
// nocerts (a name the index has never seen) asks nobody. The reused rows are
// the first two with every answer kept (MaxAge): no socket is touched.
func BenchmarkGather(b *testing.B) {
	r := newRig(b, 7)
	ctx := context.Background()
	if _, err := r.gather.Gather(ctx, r.domains[0]); err != nil { // first load
		b.Fatal(err)
	}
	classes := r.classes()
	for _, class := range []string{"unmanaged", "managed", "nocerts"} {
		domains := classes[class]
		b.Run(class, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.gather.Gather(ctx, domains[i%len(domains)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	r.gather.MaxAge = time.Hour
	for _, class := range []string{"unmanaged", "managed"} {
		domains := classes[class]
		for _, d := range domains {
			if _, err := r.gather.Gather(ctx, d); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(class+"/reused", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := r.gather.Gather(ctx, domains[i%len(domains)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
