package experiments

import (
	"bytes"
	"flag"
	"os"
	"strings"
	"sync"
	"testing"

	"stalecert/internal/core"
	"stalecert/internal/worldsim"
	"stalecert/internal/x509sim"
)

var (
	testResultsOnce sync.Once
	testResults     *Results
)

// results runs the shared pipeline once for all tests in this package.
func results(t *testing.T) *Results {
	t.Helper()
	testResultsOnce.Do(func() {
		s, _ := worldsim.ScenarioFor("test")
		testResults = Run(s)
	})
	return testResults
}

var update = flag.Bool("update", false, "rewrite testdata/all_test.golden from this run")

// TestAllGolden pins what `experiments -all -scale test` prints, byte for
// byte. After a deliberate change to the output, rerun with -update.
func TestAllGolden(t *testing.T) {
	const golden = "testdata/all_test.golden"
	var got bytes.Buffer
	results(t).WriteAll(&got, false)
	if *update {
		if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	g, w := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := range max(len(g), len(w)) {
		if i >= len(g) || i >= len(w) || g[i] != w[i] {
			g, w = append(g, "<EOF>"), append(w, "<EOF>")
			t.Fatalf("%s differs at line %d:\n got: %q\nwant: %q", golden, i+1, g[i], w[i])
		}
	}
}

func TestPipelineFindsAllThreeStaleClasses(t *testing.T) {
	r := results(t)
	if len(r.RevokedAll) == 0 {
		t.Fatal("no revocation-stale certificates")
	}
	if len(r.KeyComp) == 0 {
		t.Fatal("no key-compromise stale certificates")
	}
	if len(r.RegChange) == 0 {
		t.Fatal("no registrant-change stale certificates")
	}
	if len(r.Managed) == 0 {
		t.Fatal("no managed-TLS-departure stale certificates")
	}
	if len(r.KeyComp) >= len(r.RevokedAll) {
		t.Fatal("key compromise should be a minority of revocations")
	}
}

func TestTable4Shape(t *testing.T) {
	r := results(t)
	rows := r.Table4Rows()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	byMethod := map[core.Method]core.Summary{}
	for _, row := range rows {
		byMethod[row.Method] = row
	}
	man := byMethod[core.MethodManagedTLS]
	reg := byMethod[core.MethodRegistrantChange]
	kc := byMethod[core.MethodKeyCompromise]
	all := byMethod[core.MethodRevocation]

	// Paper ordering of daily e2LD rates: managed TLS > registrant change >
	// key compromise; revoked:all far above key compromise.
	if !(man.E2LDsPerDay() > reg.E2LDsPerDay()) {
		t.Errorf("managed TLS daily e2LDs (%.2f) should exceed registrant change (%.2f)",
			man.E2LDsPerDay(), reg.E2LDsPerDay())
	}
	if !(reg.E2LDsPerDay() > kc.E2LDsPerDay()) {
		t.Errorf("registrant change daily e2LDs (%.2f) should exceed key compromise (%.2f)",
			reg.E2LDsPerDay(), kc.E2LDsPerDay())
	}
	if !(all.Certs > 5*kc.Certs) {
		t.Errorf("revoked:all (%d) should dwarf key compromise (%d)", all.Certs, kc.Certs)
	}
	// Rendering sanity.
	text := r.Table4().Render()
	if !strings.Contains(text, "Managed TLS departure") {
		t.Error("Table 4 render missing method row")
	}
}

func TestFigure4BreachSpike(t *testing.T) {
	r := results(t)
	fig := r.Figure4()
	if len(fig.Rows) == 0 {
		t.Fatal("Figure 4 empty")
	}
	// GoDaddy's Nov/Dec 2021 must dominate its own series.
	gdCol := -1
	for i, c := range fig.Columns {
		if c == "GoDaddy" {
			gdCol = i
		}
	}
	if gdCol < 0 {
		t.Fatal("no GoDaddy series in Figure 4")
	}
	best, bestMonth := -1, ""
	for _, row := range fig.Rows {
		n := atoi(row[gdCol])
		if n > best {
			best, bestMonth = n, row[0]
		}
	}
	if bestMonth != "2021-11" && bestMonth != "2021-12" {
		t.Errorf("GoDaddy peak month = %s (count %d), want Nov/Dec 2021", bestMonth, best)
	}
}

func TestFigure6MedianOrdering(t *testing.T) {
	r := results(t)
	med := r.Figure6Medians()
	reg := med[core.MethodRegistrantChange]
	man := med[core.MethodManagedTLS]
	kc := med[core.MethodKeyCompromise]
	// Paper: key compromise (~398d) and managed TLS (~300d) have much longer
	// median staleness than registrant change (~90d).
	if !(man > reg) {
		t.Errorf("managed TLS median (%.0f) should exceed registrant change (%.0f)", man, reg)
	}
	if !(kc > reg) {
		t.Errorf("key compromise median (%.0f) should exceed registrant change (%.0f)", kc, reg)
	}
}

func TestFigure8KeyCompromiseEarly(t *testing.T) {
	r := results(t)
	surv := r.Figure8At(90)
	// Paper: only ~1% of key compromises occur after 90 days of issuance,
	// versus ~56%/49.5% for the other classes.
	if kc := surv[core.MethodKeyCompromise]; kc > 0.15 {
		t.Errorf("key compromise survival at 90d = %.2f, want near 0", kc)
	}
	if reg := surv[core.MethodRegistrantChange]; reg < 0.2 {
		t.Errorf("registrant change survival at 90d = %.2f, want substantial", reg)
	}
	if man := surv[core.MethodManagedTLS]; man < 0.2 {
		t.Errorf("managed TLS survival at 90d = %.2f, want substantial", man)
	}
}

func TestFigure9Reductions(t *testing.T) {
	r := results(t)
	rows := r.Figure9(nil)
	if len(rows) != 12 { // 3 methods x 4 caps
		t.Fatalf("figure 9 rows = %d", len(rows))
	}
	// Day reductions must decrease monotonically with looser caps within
	// each method, and the 45-day cap must eliminate most staleness days.
	byMethod := map[core.Method][]Figure9Row{}
	for _, row := range rows {
		byMethod[row.Method] = append(byMethod[row.Method], row)
	}
	for m, rs := range byMethod {
		for i := 1; i < len(rs); i++ {
			if rs[i].StalenessDayReductionPct() > rs[i-1].StalenessDayReductionPct() {
				t.Errorf("%v: reduction increased from cap %d to %d", m, rs[i-1].CapDays, rs[i].CapDays)
			}
		}
		if r45 := rs[0]; r45.CapDays != 45 || r45.StalenessDayReductionPct() < 60 {
			t.Errorf("%v: 45-day cap reduction = %.1f%%, want >60%%", m, rs[0].StalenessDayReductionPct())
		}
	}
}

func TestHeadline90DayCap(t *testing.T) {
	r := results(t)
	h := r.Headline()
	if h.OverallDayReductionPct < 40 || h.OverallDayReductionPct > 99 {
		t.Errorf("overall staleness-day reduction at 90d = %.1f%%, want a large cut", h.OverallDayReductionPct)
	}
	for m, pct := range h.DayReductionPct {
		if pct <= 0 {
			t.Errorf("%v: no staleness-day reduction", m)
		}
	}
	if h.NewStaleE2LDsPerDay <= 0 {
		t.Error("no daily stale e2LD rate")
	}
}

func TestTables3567Render(t *testing.T) {
	r := results(t)
	t3 := r.Table3().Render()
	for _, want := range []string{"CT", "CRL", "WHOIS", "aDNS"} {
		if !strings.Contains(t3, want) {
			t.Errorf("Table 3 missing %s", want)
		}
	}
	t5, analysis := r.Table5(7, 1000, 0.10)
	if analysis.Sampled == 0 {
		t.Fatal("Table 5 sampled nothing")
	}
	if analysis.TotalFlagged() == 0 {
		t.Error("Table 5 flagged nothing — feed synthesis broken")
	}
	if !strings.Contains(t5.Render(), "MW + URL") {
		t.Error("Table 5 missing bucket")
	}
	t6 := r.Table6(7)
	if len(t6.Rows) != 6 {
		t.Errorf("Table 6 rows = %d", len(t6.Rows))
	}
	t7 := r.Table7().Render()
	if !strings.Contains(t7, "Total Coverage") {
		t.Error("Table 7 missing total")
	}
}

func TestFigures5a5b7Render(t *testing.T) {
	r := results(t)
	f5a := r.Figure5a()
	if len(f5a.Rows) == 0 {
		t.Fatal("Figure 5a empty")
	}
	f5b := r.Figure5b()
	if len(f5b.Columns) < 3 {
		t.Fatalf("Figure 5b columns = %v", f5b.Columns)
	}
	f7 := r.Figure7().Render()
	if !strings.Contains(f7, "2018") {
		t.Error("Figure 7 missing 2018 series")
	}
	f6 := r.Figure6().Render()
	if !strings.Contains(f6, "Key compromise") {
		t.Error("Figure 6 missing series")
	}
}

func TestRegistrantChangeGrowthAfter2018(t *testing.T) {
	r := results(t)
	// Figure 5a shape: stale certs after LE's rise (2019+) far outnumber
	// the 2017 era.
	early, late := 0, 0
	for _, s := range r.RegChange {
		if s.EventDay.Year() <= 2017 {
			early++
		}
		if y := s.EventDay.Year(); y >= 2019 && y <= 2021 {
			late++
		}
	}
	if late <= early {
		t.Errorf("registrant-change stale certs: 2019-21 (%d) should exceed <=2017 (%d)", late, early)
	}
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func TestRevocationEffectivenessExtension(t *testing.T) {
	r := results(t)
	tbl := r.RevocationEffectiveness()
	if len(tbl.Rows) != 6 {
		t.Fatalf("profiles = %d", len(tbl.Rows))
	}
	// Decode the acceptance columns: every profile except hard-fail must
	// accept all revoked certs under interception.
	total := len(r.RevokedAll)
	for _, row := range tbl.Rows {
		name, intercepted := row[0], atoi(row[4])
		if name == "hard-fail" {
			if intercepted != 0 {
				t.Errorf("hard-fail accepted %d under interception", intercepted)
			}
			continue
		}
		if intercepted != total {
			t.Errorf("%s accepted %d/%d under interception", name, intercepted, total)
		}
	}
	// Firefox/Safari must reject everything with working infrastructure.
	for _, row := range tbl.Rows {
		if row[0] == "Firefox" || row[0] == "Safari" {
			if got := atoi(row[3]); got != 0 {
				t.Errorf("%s accepted %d with infra up", row[0], got)
			}
		}
	}
}

func TestMitigationsExtension(t *testing.T) {
	r := results(t)
	rows := r.Mitigations(1)
	if len(rows) != 3 {
		t.Fatalf("mitigations = %d", len(rows))
	}
	byName := map[string]MitigationRow{}
	for _, row := range rows {
		byName[row.Name] = row
	}
	keyless := byName["Keyless SSL (managed TLS)"]
	if keyless.StaleCertsBefore == 0 || keyless.StaleCertsAfter != 0 {
		t.Errorf("keyless = %+v", keyless)
	}
	crliteRow := byName["CRLite-style filter (revoked)"]
	if crliteRow.StaleDaysAfter != 0 || crliteRow.Note == "filter build failed" {
		t.Errorf("crlite = %+v", crliteRow)
	}
	dane := byName["DANE-style binding (TTL 1d)"]
	if dane.StaleDaysAfter >= dane.StaleDaysBefore {
		t.Errorf("dane = %+v", dane)
	}
	if dane.StaleDaysAfter != dane.StaleCertsAfter { // 1 day per cert
		t.Errorf("dane TTL bound wrong: %+v", dane)
	}
	if len(r.MitigationsTable(1).Rows) != 3 {
		t.Error("mitigations table rows")
	}
}

// A precertificate and its final certificate share one (issuer, serial) but
// not their bodies. A CRL revokes both at once, so the CRLite row must build
// its filter over the key, not split the twins across the cascade's sides.
func TestMitigationsCRLiteRowWithTwins(t *testing.T) {
	mk := func(serial uint64, names ...string) *x509sim.Certificate {
		c, err := x509sim.New(x509sim.SerialNumber(serial), 1, x509sim.KeyID(serial), names, 0, 400)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	pre, final := mk(1, "a.com"), mk(1, "a.com", "www.a.com")
	pre.Precert = true
	corpus := core.NewCorpus([]*x509sim.Certificate{pre, final, mk(2, "b.com")}, core.CorpusOptions{})
	if corpus.Len() != 3 {
		t.Fatalf("corpus holds %d bodies, want both twins and a bystander", corpus.Len())
	}
	revoked, _ := corpus.ByKey(pre.DedupKey())
	stale := []core.StaleCert{{Cert: revoked, Method: core.MethodRevocation, EventDay: 100}}
	crliteRow := func(r *Results) MitigationRow {
		for _, row := range r.Mitigations(1) {
			if row.Name == "CRLite-style filter (revoked)" {
				return row
			}
		}
		t.Fatal("no CRLite row")
		return MitigationRow{}
	}

	row := crliteRow(&Results{Corpus: corpus, RevokedAll: stale})
	if !strings.HasPrefix(row.Note, "local filter: ") || row.StaleCertsAfter != 0 || row.StaleDaysAfter != 0 {
		t.Errorf("twins: %+v", row)
	}

	// A filter that cannot be built mitigates nothing, and says why.
	row = crliteRow(&Results{Corpus: core.NewCorpus(nil, core.CorpusOptions{}), RevokedAll: stale})
	if row.StaleCertsAfter != row.StaleCertsBefore || row.StaleDaysAfter != row.StaleDaysBefore ||
		row.StaleDaysAfter != 301 || !strings.Contains(row.Note, "empty universe") {
		t.Errorf("failed build: %+v", row)
	}
}
