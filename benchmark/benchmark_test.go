package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"stalecert/internal/core"
	"stalecert/internal/crl"
	"stalecert/internal/loadgen"
	"stalecert/internal/registry"
	"stalecert/internal/simtime"
	"stalecert/internal/whois"
	"stalecert/internal/x509sim"
)

// These tests start no subprocess: they cover what the harness computes
// itself — inputs, oracle, declared metrics, comparison — and run in well
// under a second.

func overlayBytes(t *testing.T, seed uint64) ([]byte, string) {
	t.Helper()
	ov, err := buildOverlay(seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, c := range ov.Certs {
		b.Write(c.Marshal())
	}
	return b.Bytes(), ov.Zone
}

func TestSameSeedSameInputs(t *testing.T) {
	certs1, zone1 := overlayBytes(t, 7)
	certs2, zone2 := overlayBytes(t, 7)
	if !bytes.Equal(certs1, certs2) || zone1 != zone2 {
		t.Fatal("the same seed gave a different overlay or zone file")
	}
	certs3, zone3 := overlayBytes(t, 8)
	if bytes.Equal(certs1, certs3) || zone1 == zone3 {
		t.Fatal("a different seed gave the same overlay or zone file")
	}

	ring := func(seed uint64) []int32 {
		k, err := newKeyRing(seed, hotKeys, 1.1)
		if err != nil {
			t.Fatal(err)
		}
		return k.ranks
	}
	if !reflect.DeepEqual(ring(7), ring(7)) {
		t.Fatal("the same seed gave a different request key sequence")
	}
	if reflect.DeepEqual(ring(7), ring(8)) {
		t.Fatal("a different seed gave the same request key sequence")
	}

	// A small corpus in the fleet's shape: ctlogd-style bulk plus the overlay.
	ov, _ := buildOverlay(7)
	certs := append([]*x509sim.Certificate(nil), ov.Certs...)
	for i := 0; i < 3*hotKeys; i++ {
		c, err := x509sim.New(x509sim.SerialNumber(i+1), 1, x509sim.KeyID(i+1),
			[]string{fmt.Sprintf("seed%06d.example-%03d.com", i, i%(2*hotKeys))}, evalDay-30, evalDay+60)
		if err != nil {
			t.Fatal(err)
		}
		certs = append(certs, c)
	}
	corpus := core.NewCorpus(certs, core.CorpusOptions{MaxPerFQDN: -1})
	a, b := buildKeyspace(7, corpus, ov.Domains), buildKeyspace(7, corpus, ov.Domains)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave a different keyspace")
	}
	if reflect.DeepEqual(a.Domains, buildKeyspace(8, corpus, ov.Domains).Domains) {
		t.Fatal("a different seed gave the same key order")
	}
	if len(a.SweepDomains) != sweepKeys || len(a.SweepFPs) != sweepKeys {
		t.Fatalf("sweep sample is %d domains and %d fingerprints, want %d each", len(a.SweepDomains), len(a.SweepFPs), sweepKeys)
	}
	for i, d := range a.Domains {
		if d == markerSuffix {
			t.Fatal("the marker e2LD is in the keyspace")
		}
		if i < hotKeys && strings.HasPrefix(d, "example0") {
			t.Fatalf("hot domain %d is the overlay's %s", i, d)
		}
	}
}

// TestOracleOneVerdictPerMethod builds three domains by hand, each stale by
// exactly one method, and checks that the oracle's rendering is
// core.DomainStaleness's answer and nothing else.
func TestOracleOneVerdictPerMethod(t *testing.T) {
	mk := func(serial uint64, names []string, nb, na simtime.Day) *x509sim.Certificate {
		c, err := x509sim.New(x509sim.SerialNumber(serial), overlayIssuer, x509sim.KeyID(serial), names, nb, na)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	created := whoisBase + 50
	revoked := mk(1, []string{"revoked.com"}, evalDay-100, evalDay+100)
	rereg := mk(2, []string{"rereg.com"}, created-30, created+300)
	managed := mk(3, []string{"managed.com", "sni123." + markerSuffix}, evalDay-100, evalDay+100)
	certs := []*x509sim.Certificate{revoked, rereg, managed}

	reg := registry.New("com")
	if _, err := reg.Register("rereg.com", "new-owner", "GoDaddy", created, 1); err != nil {
		t.Fatal(err)
	}
	srv := whois.NewServer(&whois.RegistrySource{Registry: reg})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	o := &oracle{
		corpus:      core.NewCorpus(certs, core.CorpusOptions{MaxPerFQDN: -1}),
		delegated:   map[string]bool{"revoked.com": true, "rereg.com": true}, // managed.com lost its delegation
		revocations: []crl.Entry{{Issuer: overlayIssuer, Serial: 1, RevokedAt: evalDay - 10, Reason: crl.KeyCompromise}},
		whoisAddr:   addr.String(),
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	want := map[string]verdict{
		"revoked.com": {Fingerprint: revoked.Fingerprint().Hex(), Method: core.MethodRevocation.String(),
			EventDay: (evalDay - 10).String(), StalenessDays: 111, Reason: crl.KeyCompromise.String()},
		"rereg.com": {Fingerprint: rereg.Fingerprint().Hex(), Method: core.MethodRegistrantChange.String(),
			EventDay: created.String(), StalenessDays: 301, Domain: "rereg.com"},
		"managed.com": {Fingerprint: managed.Fingerprint().Hex(), Method: core.MethodManagedTLS.String(),
			EventDay: evalDay.String(), StalenessDays: 101, Domain: "managed.com"},
	}
	for domain, w := range want {
		got, indexed, err := o.expected(ctx, domain)
		if err != nil {
			t.Fatal(err)
		}
		if indexed != 1 || len(got) != 1 || got[0] != w {
			t.Errorf("%s: oracle says %+v over %d certs, want exactly %+v", domain, got, indexed, w)
		}
		ev, err := o.evidence(ctx, domain)
		if err != nil {
			t.Fatal(err)
		}
		direct := core.DomainStaleness(o.corpus, domain, ev)
		if len(direct) != 1 || direct[0].Cert.Fingerprint().Hex() != got[0].Fingerprint || direct[0].Method.String() != got[0].Method {
			t.Errorf("%s: core.DomainStaleness gives %+v, oracle rendered %+v", domain, direct, got)
		}
	}
}

func TestDeclaredMetricsMatchBenchmarkFile(t *testing.T) {
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("metric %+v has a malformed name, unit or direction", m)
		}
		if seen[m.Name] {
			t.Errorf("metric %s is declared twice", m.Name)
		}
		seen[m.Name] = true
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end = %+v, spec.go has %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Error("BENCHMARK.json per_layer differs from spec.go")
	}
	hasSetup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("setup_s is not declared")
	}
	if bf.RunSeconds != runSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the harness measures for %d", bf.RunSeconds, runSeconds)
	}
	if len(perLayer) > 128 || len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d per-layer metrics, %d workloads in BENCHMARK.json against %d here", len(perLayer), len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s differs from BENCHMARK.json or its reason is not one short line", w.Name)
		}
	}

	// A traced report carries every per-layer name, an untraced contract line
	// every end-to-end one.
	rep := newReport("query-hot", 1, time.Second, false)
	for _, m := range endToEnd {
		rep.set(m.Name, 1.5, m.Unit, 1)
	}
	rep.count(10, 0)
	line, err := rep.contractLine(endToEnd)
	if err != nil || !strings.HasPrefix(line, `{"correct":true,"attempted":10,"failed":0,"metrics":{`) {
		t.Errorf("contract line %q, err %v", line, err)
	}
	delete(rep.Metrics, "setup_s")
	if _, err := rep.contractLine(endToEnd); err == nil {
		t.Error("a missing declared metric did not fail the contract line")
	}
}

func TestCompareClassifies(t *testing.T) {
	rps := metricSpec{Name: "read_rps", Unit: "req/s", Better: "higher", Bound: 0.10}
	p50 := metricSpec{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	for _, c := range []struct {
		spec metricSpec
		a, b []float64
		want string
	}{
		{rps, []float64{1000}, []float64{1200}, vBetter},
		{rps, []float64{1000}, []float64{800}, vWorse},
		{p50, []float64{1.0}, []float64{1.2}, vWorse},
		{p50, []float64{1.0}, []float64{0.8}, vBetter},
		{rps, []float64{1000, 1010, 990}, []float64{1005, 995, 1002}, vWithin},
		{rps, []float64{1000, 1300, 700, 1200, 800}, []float64{1000, 1100, 900}, vUnresolved},
		{rps, []float64{1000, 1300, 700, 1200, 800}, []float64{1400, 1500, 1600}, vBetter},
		{rps, []float64{1000, 1010, 990}, []float64{1030, 1040, 1020}, vBetter},
	} {
		if got, _, _ := classify(c.spec, c.a, c.b); got != c.want {
			t.Errorf("%s %v → %v: %s, want %s", c.spec.Name, c.a, c.b, got, c.want)
		}
	}

	// The spread is Python's statistics.quantiles(v, n=4).
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}

	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	set := func(rps float64, failed int) *resultSet {
		return &resultSet{values: map[string]map[string][]float64{"query-hot": {"read_rps": {rps}}}, attempted: 1000, failed: failed}
	}
	var out bytes.Buffer
	// With the file's own bounds (a quarter), ±30% falls either side.
	if !compareSets(&out, bf, set(1000, 0), set(1300, 0)) {
		t.Errorf("+30%% read_rps was rejected:\n%s", out.String())
	}
	if compareSets(&out, bf, set(1000, 0), set(700, 0)) {
		t.Error("-30% read_rps was accepted")
	}
	if compareSets(&out, bf, set(1000, 0), set(1000, 5)) {
		t.Error("a higher error ratio was accepted")
	}
}

func TestParseMetricsAndSummarize(t *testing.T) {
	text := `# TYPE http_requests_total counter
http_requests_total{service="staleapid",route="GET /v1/cert/{fp}",code="2xx"} 41
http_requests_total{service="staleapid",route="GET /v1/domain/{e2ld}/certs",code="2xx"} 9
http_request_seconds_bucket{service="staleapid",route="GET /v1/cert/{fp}",le="0.001"} 40 # {trace_id="abc"} 0.0007
certstore_checkpoint_next_index 65000
`
	m, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.sum("http_requests_total", `service="staleapid"`); got != 50 {
		t.Errorf("sum over routes = %v, want 50", got)
	}
	if m[`http_request_seconds_bucket{service="staleapid",route="GET /v1/cert/{fp}",le="0.001"}`] != 40 {
		t.Errorf("a bucket with an exemplar parsed as %v", m)
	}
	if m["certstore_checkpoint_next_index"] != 65000 {
		t.Error("an unlabelled series was lost")
	}

	// Two clients, back to back: 100 requests of 1..100 ms are 5.05 s of
	// client time, 2.525 s by the clock.
	var samples []sample
	for i := 0; i < 100; i++ {
		samples = append(samples, sample{Dur: time.Duration(i+1) * time.Millisecond, Failed: i == 3})
	}
	st := summarize(samples, 2)
	if st.Attempted != 100 || st.Failed != 1 || math.Abs(st.RPS-100/2.525) > 1e-9 || st.Mean != 50500*time.Microsecond ||
		st.P50 != 50*time.Millisecond || st.P95 != 95*time.Millisecond || st.P99 != 99*time.Millisecond || st.beyond(0.95) != 5 {
		t.Errorf("summarize = %+v", st)
	}
}

// TestInterleaveTakesTurns: an interleaved op goes to the reference exactly
// while it is the reference's turn.
func TestInterleaveTakesTurns(t *testing.T) {
	served := 0
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { served++ }))
	defer srv.Close()
	keys, err := newKeyRing(1, refKeys, 1.1)
	if err != nil {
		t.Fatal(err)
	}
	ref := &reference{url: srv.URL, hc: srv.Client(), keys: keys}
	fleet, rec := 0, newRecorder()
	ops := ref.interleave([]loadgen.Op{{Name: "read", Weight: 1, Do: func(context.Context) (int64, error) { fleet++; return 0, nil }}}, rec)
	for _, turn := range []bool{false, true, true, false} {
		ref.inRef.Store(turn)
		if _, err := ops[0].Do(context.Background()); err != nil {
			t.Fatal(err)
		}
	}
	if n := rec.stats(1).Attempted; fleet != 2 || served != 2 || n != 2 {
		t.Errorf("%d fleet calls, %d reference calls, %d reference samples; want 2, 2, 2", fleet, served, n)
	}
}

// TestHopSelfTimesAddUp: within a request the hops' self times sum to the
// outermost span exactly, whatever the clock did, and so does the median
// request's decomposition.
func TestHopSelfTimesAddUp(t *testing.T) {
	h := newHopTimer(newTracer())
	h.on = true
	for i := 0; i < 25; i++ {
		h.span("outer", func() {
			h.span("inner", func() {
				h.span("leaf", func() { time.Sleep(20 * time.Microsecond) })
				h.span("leaf", func() {})
			})
		})
		h.finishRequest()
	}
	if len(h.rows) != 25 {
		t.Fatalf("%d rows, want 25", len(h.rows))
	}
	for i, r := range h.rows {
		if sum := r.self["outer"] + r.self["inner"] + r.self["leaf"]; sum != r.dur["outer"] {
			t.Errorf("request %d: self times sum to %v, the outer span took %v", i, sum, r.dur["outer"])
		}
	}
	// The median request's decomposition, on rows whose times are known: of
	// ten requests taking 1..10 ms, the middle fifth are the 5 and 6 ms ones.
	h.rows = nil
	for i := 1; i <= 10; i++ {
		ms := time.Duration(i) * time.Millisecond
		h.rows = append(h.rows, hopRow{
			dur:  map[string]time.Duration{"outer": ms, "leaf": ms / 2},
			self: map[string]time.Duration{"outer": ms / 2, "leaf": ms / 2},
		})
	}
	self := h.medianSelf("outer")
	if want := 2750 * time.Microsecond; self["outer"] != want || self["leaf"] != want || h.p50("outer") != 5*time.Millisecond {
		t.Errorf("median request: self %v, p50 %v; want %v each and 5ms", self, h.p50("outer"), want)
	}
}
