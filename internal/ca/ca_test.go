package ca

import (
	"errors"
	"sync/atomic"
	"testing"

	"stalecert/internal/crl"
	"stalecert/internal/ctlog"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

func keyMinter() func() x509sim.KeyID {
	var n atomic.Uint64
	return func() x509sim.KeyID { return x509sim.KeyID(n.Add(1)) }
}

func newTestCA(t *testing.T, p Profile, v Validator) (*CA, *ctlog.Collection) {
	t.Helper()
	logs := ctlog.NewCollection(ctlog.New("test-log", ctlog.Shard{}))
	return New(Config{Profile: p, Validator: v, Logs: logs, NewKey: keyMinter()}), logs
}

func TestMaxLifetimeEras(t *testing.T) {
	if got := MaxLifetime(simtime.MustParse("2016-01-01")); got != 1095 {
		t.Fatalf("2016 max = %d", got)
	}
	if got := MaxLifetime(simtime.MustParse("2019-01-01")); got != 825 {
		t.Fatalf("2019 max = %d", got)
	}
	if got := MaxLifetime(simtime.MustParse("2021-01-01")); got != 398 {
		t.Fatalf("2021 max = %d", got)
	}
}

func TestProfileLifetimeClamping(t *testing.T) {
	p := Profile{DefaultLifetime: 825}
	if got := p.Lifetime(simtime.MustParse("2021-06-01")); got != 398 {
		t.Fatalf("clamped = %d", got)
	}
	if got := p.Lifetime(simtime.MustParse("2019-06-01")); got != 825 {
		t.Fatalf("unclamped = %d", got)
	}
	le := Profile{DefaultLifetime: 90}
	if got := le.Lifetime(simtime.MustParse("2021-06-01")); got != 90 {
		t.Fatalf("LE lifetime = %d", got)
	}
}

func TestDirectoryLookup(t *testing.T) {
	d := NewDirectory()
	p, ok := d.Profile(IssuerLetsEncryptX3)
	if !ok || p.Name != "Let's Encrypt X3" || !p.Automated {
		t.Fatalf("profile = %+v", p)
	}
	if d.Name(IssuerGoDaddy) != "GoDaddy" {
		t.Fatal(d.Name(IssuerGoDaddy))
	}
	if d.Name(999) != "issuer-999" {
		t.Fatal(d.Name(999))
	}
	if len(d.All()) != 10 {
		t.Fatalf("profiles = %d", len(d.All()))
	}
}

func TestIssueBasics(t *testing.T) {
	p := Profile{ID: IssuerGoDaddy, Name: "GoDaddy", DefaultLifetime: 398}
	c, logs := newTestCA(t, p, nil)
	day := simtime.MustParse("2021-01-01")
	cert, err := c.Issue(Request{Account: "alice", Names: []string{"example.com", "www.example.com"}}, day)
	if err != nil {
		t.Fatal(err)
	}
	if cert.NotBefore != day || cert.LifetimeDays() != 398 {
		t.Fatalf("cert validity = %s..%s (%d days)", cert.NotBefore, cert.NotAfter, cert.LifetimeDays())
	}
	if cert.Issuer != IssuerGoDaddy || cert.Key == 0 {
		t.Fatalf("cert = %+v", cert)
	}
	// Precert + final submitted, deduping to one corpus cert.
	certs, stats := logs.Dedup()
	if stats.RawEntries != 2 || len(certs) != 1 {
		t.Fatalf("CT raw=%d unique=%d", stats.RawEntries, len(certs))
	}
	if certs[0].Precert {
		t.Fatal("dedup kept precert")
	}
}

func TestIssueSerialAndKeyUniqueness(t *testing.T) {
	p := Profile{ID: IssuerSectigo, Name: "Sectigo", DefaultLifetime: 398, ActiveFrom: 0}
	c, _ := newTestCA(t, p, nil)
	seenSerial := map[x509sim.SerialNumber]bool{}
	seenKey := map[x509sim.KeyID]bool{}
	for i := 0; i < 50; i++ {
		cert, err := c.Issue(Request{Account: "a", Names: []string{"x.com"}}, 3000)
		if err != nil {
			t.Fatal(err)
		}
		if seenSerial[cert.Serial] || seenKey[cert.Key] {
			t.Fatal("serial or key reused")
		}
		seenSerial[cert.Serial] = true
		seenKey[cert.Key] = true
	}
}

func TestIssueRespectsActiveFrom(t *testing.T) {
	p := Profile{ID: IssuerLetsEncryptX3, Name: "LE", DefaultLifetime: 90, ActiveFrom: simtime.MustParse("2015-12-01")}
	c, _ := newTestCA(t, p, nil)
	if _, err := c.Issue(Request{Account: "a", Names: []string{"x.com"}}, simtime.MustParse("2014-01-01")); !errors.Is(err, ErrNotActive) {
		t.Fatalf("pre-launch issuance: %v", err)
	}
}

func TestIssueValidationAndReuse(t *testing.T) {
	calls := 0
	v := ValidatorFunc(func(domain, account string, day simtime.Day) error {
		calls++
		if account != "owner" {
			return errors.New("not the owner")
		}
		return nil
	})
	p := Profile{ID: IssuerLetsEncryptX3, Name: "LE", DefaultLifetime: 90}
	c, _ := newTestCA(t, p, v)

	if _, err := c.Issue(Request{Account: "mallory", Names: []string{"victim.com"}}, 100); !errors.Is(err, ErrValidation) {
		t.Fatalf("invalid account issued: %v", err)
	}
	if _, err := c.Issue(Request{Account: "owner", Names: []string{"victim.com"}}, 100); err != nil {
		t.Fatal(err)
	}
	calls = 0
	// Within the reuse window: no re-validation.
	if _, err := c.Issue(Request{Account: "owner", Names: []string{"victim.com"}}, 100+ReuseWindow); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Fatalf("validator called %d times within reuse window", calls)
	}
	// Beyond the window: re-validation happens.
	if _, err := c.Issue(Request{Account: "owner", Names: []string{"victim.com"}}, 101+ReuseWindow); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("validator called %d times past reuse window", calls)
	}
}

func TestSkipValidationFailsPastReuseWindow(t *testing.T) {
	p := Profile{ID: IssuerGTS, Name: "GTS", DefaultLifetime: 90}
	c, _ := newTestCA(t, p, nil)
	if _, err := c.Issue(Request{Account: "a", Names: []string{"x.com"}}, 0); err != nil {
		t.Fatal(err)
	}
	// Automation with SkipValidation works inside the window...
	if _, err := c.Issue(Request{Account: "a", Names: []string{"x.com"}, SkipValidation: true}, 200); err != nil {
		t.Fatal(err)
	}
	// ...but fails beyond it.
	if _, err := c.Issue(Request{Account: "a", Names: []string{"x.com"}, SkipValidation: true}, 200+ReuseWindow+1); !errors.Is(err, ErrValidation) {
		t.Fatalf("stale reuse: %v", err)
	}
}

func TestWildcardValidatesBaseDomain(t *testing.T) {
	var got []string
	v := ValidatorFunc(func(domain, _ string, _ simtime.Day) error {
		got = append(got, domain)
		return nil
	})
	c, _ := newTestCA(t, Profile{ID: 1, Name: "X", DefaultLifetime: 90}, v)
	if _, err := c.Issue(Request{Account: "a", Names: []string{"*.example.com"}}, 0); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "example.com" {
		t.Fatalf("validated %v", got)
	}
}

func TestRenewKeepsNamesAndKey(t *testing.T) {
	c, _ := newTestCA(t, Profile{ID: 1, Name: "X", DefaultLifetime: 90}, nil)
	orig, err := c.Issue(Request{Account: "a", Names: []string{"a.com", "b.com"}}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A renewal is an Issue with the old names and key.
	renewed, err := c.Issue(Request{Account: "a", Names: orig.Names, Key: orig.Key}, 80)
	if err != nil {
		t.Fatal(err)
	}
	if renewed.Key != orig.Key || renewed.Serial == orig.Serial {
		t.Fatalf("renewal key/serial wrong: %+v", renewed)
	}
	if renewed.NotBefore != 80 {
		t.Fatalf("renewal notBefore = %v", renewed.NotBefore)
	}
}

func TestRevokeReasonDowngradeBeforeReportingDay(t *testing.T) {
	reportFrom := simtime.MustParse("2022-07-01")
	p := Profile{ID: IssuerLetsEncryptX3, Name: "LE", DefaultLifetime: 90, ReportsKeyCompromise: reportFrom}
	c, _ := newTestCA(t, p, nil)
	cert, err := c.Issue(Request{Account: "a", Names: []string{"x.com"}}, reportFrom-100)
	if err != nil {
		t.Fatal(err)
	}
	c.Revoke(cert, reportFrom-50, crl.KeyCompromise)
	e, ok := c.Authority().IsRevoked(cert.DedupKey())
	if !ok || e.Reason != crl.Unspecified {
		t.Fatalf("pre-reporting revocation = %+v", e)
	}

	cert2, err := c.Issue(Request{Account: "a", Names: []string{"y.com"}}, reportFrom)
	if err != nil {
		t.Fatal(err)
	}
	c.Revoke(cert2, reportFrom+10, crl.KeyCompromise)
	e2, _ := c.Authority().IsRevoked(cert2.DedupKey())
	if e2.Reason != crl.KeyCompromise {
		t.Fatalf("post-reporting revocation = %+v", e2)
	}
}
