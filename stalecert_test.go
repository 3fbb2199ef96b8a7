package stalecert_test

import (
	"sync"
	"testing"

	"stalecert"
	"stalecert/internal/simtime"
)

func apiScenario() stalecert.Scenario {
	s, _ := stalecert.ScenarioFor("quick")
	s.End = simtime.MustParse("2021-06-30")
	s.BaseDailyRegistrations = 2
	s.WHOISWindow = simtime.Span{Start: simtime.MustParse("2019-01-01"), End: simtime.MustParse("2021-06-30")}
	s.ADNSWindow = simtime.Span{Start: simtime.MustParse("2021-01-01"), End: simtime.MustParse("2021-03-31")}
	s.CRLWindow = simtime.Span{Start: simtime.MustParse("2021-04-01"), End: simtime.MustParse("2021-06-30")}
	s.GoDaddyBreach = false
	return s
}

var (
	apiOnce    sync.Once
	apiResults *stalecert.Results
)

func apiRun(t *testing.T) *stalecert.Results {
	t.Helper()
	apiOnce.Do(func() { apiResults = stalecert.Run(apiScenario()) })
	return apiResults
}

func TestPublicAPIEndToEnd(t *testing.T) {
	r := apiRun(t)
	if r.Corpus.Len() == 0 {
		t.Fatal("empty corpus")
	}
	rows := r.Table4Rows()
	if len(rows) != 4 {
		t.Fatalf("table 4 rows = %d", len(rows))
	}
	for _, m := range []stalecert.Method{
		stalecert.MethodRevocation, stalecert.MethodRegistrantChange, stalecert.MethodManagedTLS,
	} {
		if len(r.ByMethod(m)) == 0 {
			t.Errorf("no detections for %v", m)
		}
	}
}

func TestPublicAPISimulateThenDetect(t *testing.T) {
	s := apiScenario()
	s.End = s.Start + 420
	w := stalecert.Simulate(s)
	if w.DomainCount() == 0 {
		t.Fatal("no domains simulated")
	}
	r := stalecert.Detect(w)
	if r.Corpus.Len() == 0 {
		t.Fatal("detect produced empty corpus")
	}
}

func TestPublicAPIDirectDetectors(t *testing.T) {
	r := apiRun(t)
	// Re-run the registrant-change detector directly on the world's data.
	corpus := stalecert.NewCorpus(r.Corpus.Certs(), stalecert.CorpusOptions{})
	stale := stalecert.DetectRegistrantChange(corpus, r.World.Whois.ReRegistrations())
	if len(stale) != len(r.RegChange) {
		t.Fatalf("direct detector found %d, pipeline found %d", len(stale), len(r.RegChange))
	}
	revoked, stats := stalecert.DetectRevoked(corpus, r.World.RevocationEntries(), simtime.NoDay)
	if stats.MatchedInCT == 0 || len(revoked) == 0 {
		t.Fatal("direct revocation join found nothing")
	}
	kc := stalecert.SplitKeyCompromise(revoked)
	for _, s := range kc {
		if s.Method != stalecert.MethodKeyCompromise {
			t.Fatal("split did not relabel")
		}
	}
}

func TestPublicAPICapSimulation(t *testing.T) {
	r := apiRun(t)
	caps := stalecert.SimulateCaps(r.RegChange, stalecert.StandardCaps)
	if len(caps) != 4 {
		t.Fatalf("caps = %d", len(caps))
	}
	r90 := stalecert.SimulateCap(r.RegChange, 90)
	if r90.CapDays != 90 || r90.StaleCerts != len(r.RegChange) {
		t.Fatalf("cap result = %+v", r90)
	}
	if r90.StalenessDayReductionPct() < 0 || r90.StalenessDayReductionPct() > 100 {
		t.Fatalf("reduction out of range: %v", r90.StalenessDayReductionPct())
	}
}
