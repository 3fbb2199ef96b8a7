// Key breach: the key-compromise scenario (§5.1) over real HTTP.
//
// A hosting provider's CA issues certificates for its customers; a breach
// exposes a batch of private keys. The CA publishes keyCompromise
// revocations on its CRL distribution point; the daily fetcher collects the
// CRLs over HTTP (retrying simulated scrape protections), and the detector
// joins revocations against CT to measure how long the exposed keys stay
// usable.
//
// Run with:
//
//	go run ./examples/keybreach
package main

import (
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"sync/atomic"
	"time"

	"stalecert"
	"stalecert/internal/ca"
	"stalecert/internal/crl"
	"stalecert/internal/ctlog"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

func main() {
	logs := ctlog.NewCollection(ctlog.New("example-log", ctlog.Shard{}))
	authority := crl.NewAuthority("GoDaddy")
	var keyCounter atomic.Uint64
	issuer := ca.New(ca.Config{
		Profile:   ca.Profile{ID: ca.IssuerGoDaddy, Name: "GoDaddy", DefaultLifetime: 398},
		Logs:      logs,
		Authority: authority,
		NewKey:    func() x509sim.KeyID { return x509sim.KeyID(keyCounter.Add(1)) },
	})

	// Issue certificates for 20 managed-hosting customers over the autumn.
	issueBase := simtime.MustParse("2021-09-01")
	var issued []*x509sim.Certificate
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("customer%02d.com", i)
		cert, err := issuer.Issue(ca.Request{
			Account: "platform:managed-wordpress",
			Names:   []string{name, "www." + name},
		}, issueBase+simtime.Day(i*3))
		if err != nil {
			log.Fatal(err)
		}
		issued = append(issued, cert)
	}
	fmt.Printf("issued %d certificates for managed-hosting customers\n", len(issued))

	// 2021-11-17: the breach is discovered; the CA revokes the exposed batch
	// with reason keyCompromise over the following weeks.
	breachDay := simtime.MustParse("2021-11-17")
	for i, cert := range issued {
		if i%2 == 0 { // half the batch was exposed
			issuer.Revoke(cert, breachDay+simtime.Day(i), crl.KeyCompromise)
		}
	}

	// The CA's distribution point, with mild scrape protection.
	srv := crl.NewServer(42)
	srv.Host(authority, 0.3)
	srv.SetNow(breachDay + 30)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("CRL distribution point on %s/crl/GoDaddy\n", ts.URL)

	// Daily collection with retries and coverage accounting.
	ledger := crl.NewCoverageLedger()
	fetcher := &crl.Fetcher{Base: ts.URL, Ledger: ledger, Retries: 5}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	var lists map[string]*crl.List
	for day := 0; day < 7; day++ {
		var err error
		lists, err = fetcher.FetchAll(ctx, []string{"GoDaddy"})
		if err != nil {
			log.Fatal(err)
		}
	}
	cov := ledger.Rows()[0]
	fmt.Printf("CRL coverage: %d/%d daily fetches (%.0f%%)\n", cov.Succeeded, cov.Attempted, cov.Percent())

	list := lists["GoDaddy"]
	if list == nil {
		log.Fatal("no CRL collected")
	}
	fmt.Printf("collected CRL #%d with %d revocations\n", list.Number, len(list.Entries))

	// Join against CT and measure staleness.
	certs, _ := logs.Dedup()
	corpus := stalecert.NewCorpus(certs, stalecert.CorpusOptions{})
	revoked, stats := stalecert.DetectRevoked(corpus, list.Entries, simtime.NoDay)
	kc := stalecert.SplitKeyCompromise(revoked)
	fmt.Printf("revocations matched in CT: %d; key-compromise stale certs: %d\n", stats.MatchedInCT, len(kc))
	for _, s := range kc[:3] {
		fmt.Printf("  %v: exposed key remains valid for %d days after revocation\n",
			s.Cert.Names, s.StalenessDays())
	}
	if len(kc) == 0 {
		log.Fatal("expected key-compromise stale certificates")
	}
}
