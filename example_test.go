package stalecert_test

import (
	"fmt"

	"stalecert"
	"stalecert/internal/simtime"
	"stalecert/internal/whois"
	"stalecert/internal/x509sim"
)

// ExampleDetectRegistrantChange shows driving a detector directly with your
// own data, no simulator involved: one certificate whose validity spans a
// domain re-registration.
func ExampleDetectRegistrantChange() {
	cert, _ := x509sim.New(1, 1, 1, []string{"bargain.com", "www.bargain.com"},
		simtime.MustParse("2020-06-01"), simtime.MustParse("2021-06-01"))
	corpus := stalecert.NewCorpus([]*stalecert.Certificate{cert}, stalecert.CorpusOptions{})

	// Bulk WHOIS observed a new registry creation date mid-validity.
	events := []whois.ReRegistration{{
		Domain:       "bargain.com",
		PrevCreation: simtime.MustParse("2019-01-15"),
		NewCreation:  simtime.MustParse("2021-02-01"),
	}}

	stale := stalecert.DetectRegistrantChange(corpus, events)
	for _, s := range stale {
		fmt.Printf("%s: prior owner keeps a valid key for %d days\n", s.Domain, s.StalenessDays())
	}
	// Output: bargain.com: prior owner keeps a valid key for 121 days
}

// ExampleSimulateCap estimates the effect of a 90-day maximum lifetime on a
// stale population (§6 of the paper).
func ExampleSimulateCap() {
	longCert, _ := x509sim.New(1, 1, 1, []string{"a.com"}, 0, 364) // 365-day cert
	shortCert, _ := x509sim.New(2, 1, 2, []string{"b.com"}, 0, 89) // 90-day cert
	stale := []stalecert.StaleCert{
		{Cert: longCert, Method: stalecert.MethodRegistrantChange, EventDay: 120, Domain: "a.com"},
		{Cert: shortCert, Method: stalecert.MethodRegistrantChange, EventDay: 30, Domain: "b.com"},
	}
	r := stalecert.SimulateCap(stale, 90)
	fmt.Printf("stale certs %d -> %d; staleness days %d -> %d\n",
		r.StaleCerts, r.RemainingStale, r.StalenessDays, r.CappedStaleDays)
	// Output: stale certs 2 -> 1; staleness days 305 -> 60
}

// ExampleRun is the package's quick start: simulate a world, run the three
// detectors, and read Table 4 and the 90-day-cap headline.
func ExampleRun() {
	s, _ := stalecert.ScenarioFor("quick")
	results := stalecert.Run(s)
	for _, row := range results.Table4Rows() {
		fmt.Printf("%-26s %6d certs (%.1f/day)\n", row.Method, row.Certs, row.CertsPerDay())
	}
	h := results.Headline()
	fmt.Printf("90-day cap cuts staleness-days by %.0f%%\n", h.OverallDayReductionPct)
	// Output:
	// Revoked: all                  519 certs (0.9/day)
	// Revoked: key compromise        20 certs (0.0/day)
	// Domain registrant change        4 certs (0.0/day)
	// Managed TLS departure          16 certs (0.2/day)
	// 90-day cap cuts staleness-days by 88%
}
