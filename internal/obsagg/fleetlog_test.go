package obsagg

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"stalecert/internal/obs"
)

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func TestMergeLogsOrderingAcrossSkewedInstances(t *testing.T) {
	a := &Aggregator{Registry: obs.NewRegistry(), Logger: quietLogger()}
	t1 := Target{Job: "ctlogd", URL: "http://a:1"}
	t2 := Target{Job: "staleapid", URL: "http://b:2"}
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

	// ctlogd's scrape arrives first but its records interleave in time with
	// staleapid's: the merged view must read chronologically regardless of
	// scrape order.
	a.mergeLogs(t1, []obs.LogRecord{
		{Seq: 1, Time: base.Add(1 * time.Second), Level: "INFO", Msg: "ct-1"},
		{Seq: 2, Time: base.Add(4 * time.Second), Level: "INFO", Msg: "ct-2"},
	})
	a.mergeLogs(t2, []obs.LogRecord{
		{Seq: 1, Time: base, Level: "INFO", Msg: "api-1"},
		{Seq: 2, Time: base.Add(2 * time.Second), Level: "INFO", Msg: "api-2"},
		{Seq: 3, Time: base.Add(3 * time.Second), Level: "INFO", Msg: "api-3"},
	})

	var got []string
	for _, r := range a.FleetLogs(obs.LogFilter{}) {
		got = append(got, r.Msg)
	}
	want := []string{"api-1", "ct-1", "api-2", "api-3", "ct-2"}
	if len(got) != len(want) {
		t.Fatalf("merged %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merged %v, want %v", got, want)
		}
	}
	// Records carry the aggregator-assigned job/instance labels.
	recs := a.FleetLogs(obs.LogFilter{Job: "ctlogd"})
	if len(recs) != 2 || recs[0].Instance != t1.Instance() {
		t.Errorf("job filter: %+v", recs)
	}
}

func TestMergeLogsDedupAndRestartReset(t *testing.T) {
	a := &Aggregator{Registry: obs.NewRegistry(), Logger: quietLogger()}
	tgt := Target{Job: "crld", URL: "http://c:3"}
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

	batch := []obs.LogRecord{
		{Seq: 5, Time: base, Level: "INFO", Msg: "one"},
		{Seq: 6, Time: base.Add(time.Second), Level: "INFO", Msg: "two"},
	}
	a.mergeLogs(tgt, batch)
	// Scrape overlap re-delivers the same records plus one new one: only the
	// new record lands.
	a.mergeLogs(tgt, append(batch, obs.LogRecord{Seq: 7, Time: base.Add(2 * time.Second), Level: "INFO", Msg: "three"}))
	if got := len(a.FleetLogs(obs.LogFilter{})); got != 3 {
		t.Fatalf("after overlap re-scrape: %d records, want 3", got)
	}

	// The daemon restarts: sequence numbers start over, at later times, so
	// the fresh process's records are kept.
	a.mergeLogs(tgt, []obs.LogRecord{
		{Seq: 1, Time: base.Add(3 * time.Second), Level: "INFO", Msg: "reborn"},
		{Seq: 2, Time: base.Add(4 * time.Second), Level: "INFO", Msg: "again"},
	})
	if got := len(a.FleetLogs(obs.LogFilter{})); got != 5 {
		t.Fatalf("after restart: %d records, want 5", got)
	}
	recs := a.FleetLogs(obs.LogFilter{})
	if recs[len(recs)-1].Msg != "again" {
		t.Errorf("restart records missing: %+v", recs)
	}

	// It restarts again and logs past the old mark (2) before the next
	// scrape: seqs 1-10, every one of them its own, startup lines included.
	var reborn []obs.LogRecord
	for i := range 10 {
		reborn = append(reborn, obs.LogRecord{Seq: uint64(i + 1), Time: base.Add(time.Duration(10+i) * time.Second),
			Level: "INFO", Msg: "reborn past the mark"})
	}
	a.mergeLogs(tgt, reborn)
	if got := len(a.FleetLogs(obs.LogFilter{})); got != 15 {
		t.Fatalf("after a restart past the mark: %d records, want 15", got)
	}
	// The next scrape's overlap re-sends seqs 8-10 with one new record.
	a.mergeLogs(tgt, append(reborn[7:], obs.LogRecord{Seq: 11, Time: base.Add(20 * time.Second), Level: "INFO", Msg: "new"}))
	if got := len(a.FleetLogs(obs.LogFilter{})); got != 16 {
		t.Fatalf("after the reborn process's overlap re-scrape: %d records, want 16", got)
	}
}

func TestMergeLogsBufferTrim(t *testing.T) {
	a := &Aggregator{Registry: obs.NewRegistry(), Logger: quietLogger(), FleetLogBuffer: 3}
	tgt := Target{Job: "ctlogd", URL: "http://a:1"}
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	var recs []obs.LogRecord
	for i := 0; i < 6; i++ {
		recs = append(recs, obs.LogRecord{Seq: uint64(i + 1), Time: base.Add(time.Duration(i) * time.Second),
			Level: "INFO", Msg: "m"})
	}
	a.mergeLogs(tgt, recs)
	if got := len(a.FleetLogs(obs.LogFilter{})); got != 3 {
		t.Fatalf("trimmed to %d, want 3", got)
	}
	kept := a.FleetLogs(obs.LogFilter{})
	if kept[0].Seq != 4 {
		t.Errorf("oldest kept seq = %d, want 4 (oldest evicted first)", kept[0].Seq)
	}
}

func TestScrapeLogsEndToEnd(t *testing.T) {
	ring := obs.NewLogRing(16)
	ring.Registry = obs.NewRegistry()
	base := time.Now().UTC()
	ring.Append(obs.LogRecord{Time: base, Level: "INFO", Msg: "first", TraceID: "tr1"})
	ring.Append(obs.LogRecord{Time: base.Add(time.Second), Level: "ERROR", Msg: "second", TraceID: "tr1"})
	srv := httptest.NewServer(ring.Handler())
	defer srv.Close()

	a := &Aggregator{Registry: obs.NewRegistry(), Logger: quietLogger()}
	tgt := Target{Job: "ctlogd", URL: srv.URL}
	recs, err := a.scrapeLogs(context.Background(), srv.Client(), tgt)
	if err != nil {
		t.Fatalf("scrapeLogs: %v", err)
	}
	a.mergeLogs(tgt, recs)
	if got := len(a.FleetLogs(obs.LogFilter{})); got != 2 {
		t.Fatalf("merged %d records, want 2", got)
	}

	// Second round: the ?since= cursor plus seq dedup deliver only new data.
	ring.Append(obs.LogRecord{Time: base.Add(2 * time.Second), Level: "INFO", Msg: "third"})
	recs, err = a.scrapeLogs(context.Background(), srv.Client(), tgt)
	if err != nil {
		t.Fatalf("scrapeLogs round 2: %v", err)
	}
	a.mergeLogs(tgt, recs)
	if got := len(a.FleetLogs(obs.LogFilter{})); got != 3 {
		t.Fatalf("after round 2: %d records, want 3", got)
	}

	// Trace correlation flows through the fleet store.
	if logs := a.FleetTraceLogs("tr1"); len(logs) != 2 {
		t.Errorf("FleetTraceLogs = %d records, want 2", len(logs))
	}

	// A target without a ring (404) is skipped without error.
	none := httptest.NewServer(http.NotFoundHandler())
	defer none.Close()
	recs, err = a.scrapeLogs(context.Background(), none.Client(), Target{Job: "old", URL: none.URL})
	if err != nil || recs != nil {
		t.Errorf("404 target: recs=%v err=%v, want nil/nil", recs, err)
	}
}

func TestFleetLogsHandler(t *testing.T) {
	a := &Aggregator{Registry: obs.NewRegistry(), Logger: quietLogger()}
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	a.mergeLogs(Target{Job: "ctlogd", URL: "http://a:1"}, []obs.LogRecord{
		{Seq: 1, Time: base, Level: "ERROR", Msg: "boom", TraceID: "tr9"},
	})
	a.mergeLogs(Target{Job: "staleapid", URL: "http://b:2"}, []obs.LogRecord{
		{Seq: 1, Time: base.Add(time.Second), Level: "INFO", Msg: "fine"},
	})
	srv := httptest.NewServer(a.Handler())
	defer srv.Close()

	get := func(q string) []obs.LogRecord {
		t.Helper()
		resp, err := http.Get(srv.URL + "/fleet/logs" + q)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", q, resp.StatusCode)
		}
		var recs []obs.LogRecord
		if err := json.NewDecoder(resp.Body).Decode(&recs); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	if recs := get(""); len(recs) != 2 {
		t.Errorf("unfiltered: %d, want 2", len(recs))
	}
	if recs := get("?job=ctlogd"); len(recs) != 1 || recs[0].Msg != "boom" {
		t.Errorf("?job=: %+v", recs)
	}
	if recs := get("?level=error"); len(recs) != 1 || recs[0].Job != "ctlogd" {
		t.Errorf("?level=error: %+v", recs)
	}
	if recs := get("?trace=tr9"); len(recs) != 1 || recs[0].Msg != "boom" {
		t.Errorf("?trace=: %+v", recs)
	}
}

func TestAlertErrorBurst(t *testing.T) {
	reg := obs.NewRegistry()
	clock := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	a := &Aggregator{
		Registry:            reg,
		Logger:              quietLogger(),
		ErrorBurstThreshold: 1, // >1 error record/second pages
		AlertRearm:          time.Minute,
		Now:                 func() time.Time { return clock },
	}
	setErrTotal := func(job string, v float64) {
		a.mu.Lock()
		a.ensureMaps()
		a.byJob[job] = []obs.Sample{{
			Name:   "log_records_total",
			Labels: obs.FormatLabels([]string{"job", job, "level", "error", "service", job}),
			Kind:   obs.KindCounter,
			Value:  v,
		}}
		a.mu.Unlock()
	}
	fired := func() float64 {
		return float64(reg.Counter("obsagg_error_burst_alerts_total", "job", "ctlogd").Value())
	}

	// Round 1 baselines without firing.
	setErrTotal("ctlogd", 10)
	evalRound(a)
	if fired() != 0 {
		t.Fatal("first round fired")
	}

	// Round 2: 50 error records in 10s = 5/s > 1/s — fires.
	clock = clock.Add(10 * time.Second)
	setErrTotal("ctlogd", 60)
	evalRound(a)
	if fired() != 1 {
		t.Fatalf("burst did not fire: %v", fired())
	}

	// Round 3: still bursting but inside the re-arm quiet period — silent.
	clock = clock.Add(10 * time.Second)
	setErrTotal("ctlogd", 110)
	evalRound(a)
	if fired() != 1 {
		t.Fatalf("alert re-fired inside quiet period: %v", fired())
	}

	// Round 4: past the quiet period and still bursting — re-fires.
	clock = clock.Add(2 * time.Minute)
	setErrTotal("ctlogd", 1200)
	evalRound(a)
	if fired() != 2 {
		t.Fatalf("alert did not re-arm: %v", fired())
	}

	// Counter reset (restart) re-baselines instead of firing on a negative delta.
	clock = clock.Add(10 * time.Minute)
	setErrTotal("ctlogd", 3)
	evalRound(a)
	if fired() != 2 {
		t.Fatalf("restart fired an alert: %v", fired())
	}

	// A quiet job below threshold never fires.
	clock = clock.Add(10 * time.Second)
	setErrTotal("ctlogd", 5) // 2 records in 10s = 0.2/s
	evalRound(a)
	if fired() != 2 {
		t.Fatalf("sub-threshold rate fired: %v", fired())
	}
}
