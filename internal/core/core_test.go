package core

import (
	"testing"

	"stalecert/internal/crl"
	"stalecert/internal/dnssim"
	"stalecert/internal/simtime"
	"stalecert/internal/whois"
	"stalecert/internal/x509sim"
)

func cert(t *testing.T, serial uint64, names []string, nb, na simtime.Day) *x509sim.Certificate {
	t.Helper()
	c, err := x509sim.New(x509sim.SerialNumber(serial), 1, x509sim.KeyID(serial), names, nb, na)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCorpusDedupAndIndex(t *testing.T) {
	a := cert(t, 1, []string{"a.com", "www.a.com"}, 0, 100)
	dup := a.Clone()
	b := cert(t, 2, []string{"b.com", "*.b.com"}, 0, 100)
	c := NewCorpus([]*x509sim.Certificate{a, dup, b}, CorpusOptions{})
	if c.Len() != 2 || c.Deduped != 1 {
		t.Fatalf("len=%d deduped=%d", c.Len(), c.Deduped)
	}
	if got := c.ByE2LD("a.com"); len(got) != 1 || got[0].Serial != 1 {
		t.Fatalf("ByE2LD(a.com) = %v", got)
	}
	if got := c.ByE2LD("b.com"); len(got) != 1 {
		t.Fatalf("ByE2LD(b.com) = %v", got)
	}
	if _, ok := c.ByKey(a.DedupKey()); !ok {
		t.Fatal("ByKey miss")
	}
}

func TestCorpusFQDNCapFilter(t *testing.T) {
	var certs []*x509sim.Certificate
	for i := 0; i < 10; i++ {
		certs = append(certs, cert(t, uint64(i+1), []string{"spam.com"}, simtime.Day(i), simtime.Day(i+10)))
	}
	certs = append(certs, cert(t, 100, []string{"ok.com"}, 0, 10))
	c := NewCorpus(certs, CorpusOptions{MaxPerFQDN: 5})
	if c.Len() != 1 || c.ExcludedFQDNs != 1 {
		t.Fatalf("len=%d excluded=%d", c.Len(), c.ExcludedFQDNs)
	}
	if len(c.ByE2LD("spam.com")) != 0 {
		t.Fatal("banned FQDN still indexed")
	}
}

func TestDetectRevokedFilters(t *testing.T) {
	valid := cert(t, 1, []string{"a.com"}, 100, 200)
	early := cert(t, 2, []string{"b.com"}, 100, 200)
	late := cert(t, 3, []string{"c.com"}, 100, 200)
	old := cert(t, 4, []string{"d.com"}, 100, 20000)
	corpus := NewCorpus([]*x509sim.Certificate{valid, early, late, old}, CorpusOptions{})

	cutoff := simtime.Day(3000)
	entries := []crl.Entry{
		{Issuer: 1, Serial: 1, RevokedAt: 3150, Reason: crl.KeyCompromise},
		{Issuer: 1, Serial: 2, RevokedAt: 50, Reason: crl.Superseded},   // before valid
		{Issuer: 1, Serial: 3, RevokedAt: 250, Reason: crl.Superseded},  // after expiry
		{Issuer: 1, Serial: 4, RevokedAt: 2999, Reason: crl.Superseded}, // before cutoff
		{Issuer: 1, Serial: 99, RevokedAt: 150, Reason: crl.Superseded}, // not in CT
	}
	// Make the first cert's revocation valid relative to its life.
	valid.NotBefore, valid.NotAfter = 3100, 3400

	stale, stats := DetectRevoked(corpus, entries, cutoff)
	if stats.TotalRevocations != 5 || stats.MatchedInCT != 4 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.RevokedBeforeValid != 1 || stats.RevokedAfterExpiry != 1 || stats.BeforeCutoff != 1 || stats.Kept != 1 {
		t.Fatalf("filter stats = %+v", stats)
	}
	if len(stale) != 1 || stale[0].Cert.Serial != 1 {
		t.Fatalf("stale = %+v", stale)
	}
	if stale[0].StalenessDays() != int(3400-3150+1) {
		t.Fatalf("staleness = %d", stale[0].StalenessDays())
	}
	kc := SplitKeyCompromise(stale)
	if len(kc) != 1 || kc[0].Method != MethodKeyCompromise {
		t.Fatalf("kc = %+v", kc)
	}
}

func TestDetectRegistrantChange(t *testing.T) {
	spans := cert(t, 1, []string{"flip.com", "www.flip.com"}, 100, 400)
	before := cert(t, 2, []string{"flip.com"}, 10, 90)     // expired before change
	after := cert(t, 3, []string{"flip.com"}, 300, 600)    // issued after change
	other := cert(t, 4, []string{"other.com"}, 100, 400)   // unrelated
	boundary := cert(t, 5, []string{"flip.com"}, 200, 500) // notBefore == event: excluded (strict)
	corpus := NewCorpus([]*x509sim.Certificate{spans, before, after, other, boundary}, CorpusOptions{})

	events := []whois.ReRegistration{{Domain: "flip.com", NewCreation: 200, PrevCreation: 50}}
	stale := DetectRegistrantChange(corpus, events)
	if len(stale) != 1 {
		t.Fatalf("stale = %+v", stale)
	}
	s := stale[0]
	if s.Cert.Serial != 1 || s.Domain != "flip.com" || s.EventDay != 200 {
		t.Fatalf("stale[0] = %+v", s)
	}
	if s.StalenessDays() != 201 { // 400-200+1
		t.Fatalf("staleness = %d", s.StalenessDays())
	}
}

func TestDetectRegistrantChangeCoversSubdomainCerts(t *testing.T) {
	sub := cert(t, 1, []string{"shop.flip.com"}, 100, 400)
	corpus := NewCorpus([]*x509sim.Certificate{sub}, CorpusOptions{})
	stale := DetectRegistrantChange(corpus, []whois.ReRegistration{{Domain: "flip.com", NewCreation: 200}})
	if len(stale) != 1 {
		t.Fatal("subdomain cert not matched to e2LD re-registration")
	}
}

func TestDetectManagedTLSDeparture(t *testing.T) {
	managed := cert(t, 1, []string{"sni1.cloudflaressl.com", "leave.com", "*.leave.com"}, 100, 400)
	uploaded := cert(t, 2, []string{"leave.com"}, 100, 400)                          // customer-uploaded: no marker
	expired := cert(t, 3, []string{"sni2.cloudflaressl.com", "leave.com"}, 10, 150)  // expired before departure
	otherDom := cert(t, 4, []string{"sni3.cloudflaressl.com", "stay.com"}, 100, 400) // different domain
	corpus := NewCorpus([]*x509sim.Certificate{managed, uploaded, expired, otherDom}, CorpusOptions{})

	isManaged := func(c *x509sim.Certificate) bool {
		for _, n := range c.Names {
			if len(n) > 3 && n[:3] == "sni" {
				return true
			}
		}
		return false
	}
	deps := []dnssim.Departure{{Domain: "leave.com", LastSeen: 200, FirstGone: 201}}
	stale := DetectManagedTLSDeparture(corpus, deps, isManaged)
	if len(stale) != 1 || stale[0].Cert.Serial != 1 {
		t.Fatalf("stale = %+v", stale)
	}
	if stale[0].StalenessDays() != 200 { // 400-201+1
		t.Fatalf("staleness = %d", stale[0].StalenessDays())
	}
}

func TestSummarize(t *testing.T) {
	c1 := cert(t, 1, []string{"a.com", "www.a.com", "b.com"}, 0, 100)
	c2 := cert(t, 2, []string{"www.a.com"}, 0, 100)
	corpus := NewCorpus([]*x509sim.Certificate{c1, c2}, CorpusOptions{})
	stale := []StaleCert{
		{Cert: c1, Method: MethodRegistrantChange, EventDay: 50, Domain: "a.com"},
		{Cert: c2, Method: MethodRegistrantChange, EventDay: 50, Domain: "a.com"},
		{Cert: c1, Method: MethodRevocation, EventDay: 50},
	}
	window := simtime.Span{Start: 0, End: 100}
	reg := Summarize(corpus, stale, MethodRegistrantChange, window)
	// Domain-scoped: only names under a.com count.
	if reg.Certs != 2 || reg.E2LDs != 1 || reg.FQDNs != 2 {
		t.Fatalf("registrant summary = %+v", reg)
	}
	if reg.CertsPerDay() != 0.02 {
		t.Fatalf("certs/day = %v", reg.CertsPerDay())
	}
	rev := Summarize(corpus, stale, MethodRevocation, window)
	// Revocation-scoped: every SAN counts; e2LDs a.com and b.com.
	if rev.Certs != 1 || rev.FQDNs != 3 || rev.E2LDs != 2 {
		t.Fatalf("revocation summary = %+v", rev)
	}
}

func TestSimulateCap(t *testing.T) {
	// Cert: 365-day lifetime, event at day 100 of its life.
	c1 := cert(t, 1, []string{"a.com"}, 0, 364)
	// Cert: 90-day lifetime, event at day 30.
	c2 := cert(t, 2, []string{"b.com"}, 0, 89)
	stale := []StaleCert{
		{Cert: c1, Method: MethodRegistrantChange, EventDay: 100, Domain: "a.com"},
		{Cert: c2, Method: MethodRegistrantChange, EventDay: 30, Domain: "b.com"},
	}
	r := SimulateCap(stale, 90)
	// Original staleness: (364-100+1)=265 and (89-30+1)=60 → 325.
	if r.StalenessDays != 325 {
		t.Fatalf("orig staleness = %d", r.StalenessDays)
	}
	// Capped: c1's notAfter becomes 89 < event 100 → eliminated; c2 unchanged.
	if r.RemainingStale != 1 || r.CappedStaleDays != 60 {
		t.Fatalf("capped = %+v", r)
	}
	if r.StaleCertReductionPct() != 50 {
		t.Fatalf("cert reduction = %v", r.StaleCertReductionPct())
	}
	want := 100 * float64(325-60) / 325
	if got := r.StalenessDayReductionPct(); got != want {
		t.Fatalf("day reduction = %v, want %v", got, want)
	}
}

func TestSimulateCapsMonotone(t *testing.T) {
	var stale []StaleCert
	for i := 0; i < 50; i++ {
		lifetime := 90 + (i%4)*100
		c := cert(t, uint64(i+1), []string{"m.com"}, simtime.Day(i*10), simtime.Day(i*10+lifetime-1))
		event := c.NotBefore + simtime.Day(lifetime/3)
		stale = append(stale, StaleCert{Cert: c, Method: MethodRegistrantChange, EventDay: event, Domain: "m.com"})
	}
	results := SimulateCaps(stale, StandardCaps)
	for i := 1; i < len(results); i++ {
		if results[i].CappedStaleDays < results[i-1].CappedStaleDays {
			t.Fatalf("staleness days not monotone in cap: %+v", results)
		}
	}
	if results[0].CapDays != 45 || results[len(results)-1].CapDays != 398 {
		t.Fatal("StandardCaps wrong")
	}
}

func TestStalenessAndSurvivalCDFs(t *testing.T) {
	c1 := cert(t, 1, []string{"a.com"}, 0, 99)
	stale := []StaleCert{
		{Cert: c1, EventDay: 10},
		{Cert: c1, EventDay: 50},
		{Cert: c1, EventDay: 90},
	}
	s := StalenessCDF(stale)
	if s.N() != 3 || s.Median() != 50 { // 100-50
		t.Fatalf("staleness CDF median = %v", s.Median())
	}
	surv := SurvivalCDF(stale)
	if got := surv.SurvivalAt(45); got < 2.0/3-1e-9 || got > 2.0/3+1e-9 {
		t.Fatalf("survival(45) = %v", got)
	}
	byYear := YearlyStalenessCDFs(stale)
	if len(byYear) != 1 || byYear[2013] == nil {
		t.Fatalf("yearly CDFs = %v", byYear)
	}
}

func TestMethodStrings(t *testing.T) {
	names := map[Method]string{
		MethodRevocation:       "Revoked: all",
		MethodKeyCompromise:    "Revoked: key compromise",
		MethodRegistrantChange: "Domain registrant change",
		MethodManagedTLS:       "Managed TLS departure",
	}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("%d = %q", m, m.String())
		}
	}
}
