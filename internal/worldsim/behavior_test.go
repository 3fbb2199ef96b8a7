package worldsim

import (
	"testing"

	"stalecert/internal/ca"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// Behavioural tests for the dynamics DESIGN.md calls load-bearing.

func TestUnattendedAutomationExtendsPastLapse(t *testing.T) {
	// §7.1: automated issuance keeps renewing after the owner walks away,
	// until the validation-reuse window runs out — producing certificates
	// issued strictly after the domain lapsed.
	s := Quick()
	s.Start = simtime.MustParse("2019-01-01")
	s.End = simtime.MustParse("2021-12-31")
	s.BaseDailyRegistrations = 3
	s.DomainRenewProb = 0 // every domain lapses after one cycle
	s.ReRegistrationProb = 0
	s.GoDaddyBreach = false
	s.WHOISWindow = simtime.Span{}
	s.ADNSWindow = simtime.Span{}
	s.CRLWindow = simtime.Span{}
	w := NewWorld(s)
	w.Run()

	certs, _ := w.Logs.Dedup()
	postLapse := 0
	for _, c := range certs {
		prof, ok := w.Dir.Profile(c.Issuer)
		if !ok || !prof.Automated || prof.ManagedTLS {
			continue
		}
		// Find the e2LD and its (single-cycle) registration window.
		for _, name := range c.Names {
			e2, err := w.PSL.ETLDPlusOne(name)
			if err != nil {
				continue
			}
			if hist := w.Registry.History(e2); len(hist) == 1 {
				if c.NotBefore > hist[0].Expires {
					postLapse++
				}
			}
			break
		}
	}
	if postLapse == 0 {
		t.Fatal("no automated certificates issued after domain lapse — §7.1 dynamic missing")
	}
	// But the chains must die once revalidation fails: nothing should be
	// issued more than ReuseWindow past a lapse.
	for _, c := range certs {
		prof, ok := w.Dir.Profile(c.Issuer)
		if !ok || !prof.Automated || prof.ManagedTLS {
			continue
		}
		for _, name := range c.Names {
			e2, err := w.PSL.ETLDPlusOne(name)
			if err != nil {
				continue
			}
			if hist := w.Registry.History(e2); len(hist) == 1 {
				if over := int(c.NotBefore - hist[0].Expires); over > ca.ReuseWindow+60 {
					t.Fatalf("cert issued %d days past lapse of %s — automation immortal", over, e2)
				}
			}
			break
		}
	}
}

func TestHostingMixCoversAllModes(t *testing.T) {
	s := Quick()
	s.Start = simtime.MustParse("2019-01-01")
	s.End = simtime.MustParse("2020-12-31")
	s.BaseDailyRegistrations = 4
	s.WHOISWindow = simtime.Span{}
	s.ADNSWindow = simtime.Span{}
	s.CRLWindow = simtime.Span{}
	s.GoDaddyBreach = false
	w := NewWorld(s)
	w.Run()

	certs, _ := w.Logs.Dedup()
	byIssuer := map[x509sim.IssuerID]int{}
	for _, c := range certs {
		byIssuer[c.Issuer]++
	}
	// The era's big CAs must all appear: LE (self automated), cPanel
	// (platform), Cloudflare (CDN per-domain era), and at least one manual
	// commercial CA.
	for _, id := range []x509sim.IssuerID{ca.IssuerLetsEncryptX3, ca.IssuerCPanel, ca.IssuerCloudflareECC} {
		if byIssuer[id] == 0 {
			t.Errorf("issuer %v absent from corpus", w.Dir.Name(id))
		}
	}
	manual := byIssuer[ca.IssuerGoDaddy] + byIssuer[ca.IssuerSectigo] + byIssuer[ca.IssuerDigiCert] +
		byIssuer[ca.IssuerGlobalSign] + byIssuer[ca.IssuerEntrust]
	if manual == 0 {
		t.Error("no manual-CA certificates issued")
	}
}

func TestCruiseLinerEraIssuerSwitch(t *testing.T) {
	s := Quick()
	s.Start = simtime.MustParse("2017-06-01")
	s.End = simtime.MustParse("2020-12-31")
	s.BaseDailyRegistrations = 4
	s.CDNPeak = 0.4 // lots of CDN traffic for signal
	s.WHOISWindow = simtime.Span{}
	s.ADNSWindow = simtime.Span{}
	s.CRLWindow = simtime.Span{}
	s.GoDaddyBreach = false
	w := NewWorld(s)
	w.Run()

	certs, _ := w.Logs.Dedup()
	var comodoLast, cloudflareFirst simtime.Day = simtime.NoDay, simtime.Forever
	comodoMulti := 0
	for _, c := range certs {
		switch c.Issuer {
		case ca.IssuerComodoDV:
			if c.NotBefore > comodoLast {
				comodoLast = c.NotBefore
			}
			if len(c.Names) > 5 {
				comodoMulti++
			}
		case ca.IssuerCloudflareECC:
			if c.NotBefore < cloudflareFirst {
				cloudflareFirst = c.NotBefore
			}
		}
	}
	if comodoMulti == 0 {
		t.Fatal("no multi-customer cruise-liner certificates issued")
	}
	if cloudflareFirst < CloudflarePerDomainFrom {
		t.Fatalf("Cloudflare CA issued before the per-domain era: %s", cloudflareFirst)
	}
	if comodoLast == simtime.NoDay {
		t.Fatal("no COMODO certificates at all")
	}
}

func TestWHOISWindowBoundsObservations(t *testing.T) {
	s := Quick()
	s.Start = simtime.MustParse("2018-01-01")
	s.End = simtime.MustParse("2020-12-31")
	s.BaseDailyRegistrations = 2
	// WHOIS collection only during 2019.
	s.WHOISWindow = simtime.Span{
		Start: simtime.MustParse("2019-01-01"),
		End:   simtime.MustParse("2020-01-01"),
	}
	s.ADNSWindow = simtime.Span{}
	s.CRLWindow = simtime.Span{}
	s.GoDaddyBreach = false
	w := NewWorld(s)
	w.Run()

	if w.Whois.Domains() == 0 {
		t.Fatal("no WHOIS observations in window")
	}
	// Every observed creation date must be visible during the window: either
	// pre-window (still registered at window start) or inside it; never
	// after the window closes.
	for _, d := range w.AllDomains() {
		for _, created := range w.Whois.CreationDates(d) {
			if created >= s.WHOISWindow.End {
				t.Fatalf("domain %s: creation %s observed after window end", d, created)
			}
		}
	}
}

func TestDisabledCollectionsStayEmpty(t *testing.T) {
	s := Quick()
	s.Start = simtime.MustParse("2020-01-01")
	s.End = simtime.MustParse("2020-06-30")
	s.WHOISWindow = simtime.Span{}
	s.ADNSWindow = simtime.Span{}
	s.CRLWindow = simtime.Span{}
	s.GoDaddyBreach = false
	w := NewWorld(s)
	w.Run()
	if w.Whois.Rows() != 0 {
		t.Error("WHOIS collected outside window")
	}
	if len(w.ADNS.Days()) != 0 {
		t.Error("aDNS scanned outside window")
	}
	if len(w.RevocationEntries()) != 0 {
		t.Error("CRLs collected outside window")
	}
	if len(w.Ledger.Rows()) != 0 {
		t.Error("ledger recorded outside window")
	}
}
