package stalecert_test

// Trace acceptance: the ISSUE's end-to-end criterion. A request enters a
// staleapid-shaped daemon, fans out an evidence fetch to a ctlogd-shaped
// daemon through the resilient client, and the first attempt fails — the
// whole journey must be retrievable from the fleet aggregator's
// /fleet/traces/{id} as ONE stitched span tree spanning both daemons, with
// the retry attempts visible as numbered sibling client spans, and the
// daemon's latency histogram must expose a trace-ID exemplar that
// obs.ParseProm round-trips.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"stalecert/internal/fleettest"
	"stalecert/internal/obs"
	"stalecert/internal/resil"
)

func TestRequestTracedAcrossFleet(t *testing.T) {
	// ctlogd: flaky — the first get-sth 503s, the retry succeeds. Both
	// requests land in ctlogd's own span store via the server middleware.
	ctMux := http.NewServeMux()
	ctMux.HandleFunc("GET /ct/v1/get-sth", func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"tree_size":17}`))
	})
	ct := fleettest.Serve(t, "ctlogd", 0)
	ct.Handle(ctMux)
	var hits atomic.Int64
	ct.Wrap(func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if hits.Add(1) == 1 {
				http.Error(w, "wedged", http.StatusServiceUnavailable)
				return
			}
			next.ServeHTTP(w, r)
		})
	})

	// staleapid: its staleness handler performs the evidence fetch against
	// ctlogd through the full resilience stack, propagating the request
	// context so every attempt joins the incoming trace.
	api := fleettest.Serve(t, "staleapid", 0)
	evidenceClient := resil.InstrumentClient(nil, resil.Options{
		Service: "staleapid",
		Spans:   api.Spans,
		Policy: resil.Policy{
			MaxAttempts: 3,
			BaseDelay:   time.Millisecond,
			MaxDelay:    2 * time.Millisecond,
		},
	})
	apiMux := http.NewServeMux()
	apiMux.HandleFunc("GET /v1/domain/{e2ld}/staleness", func(w http.ResponseWriter, r *http.Request) {
		req, _ := http.NewRequestWithContext(r.Context(), http.MethodGet, ct.URL+"/ct/v1/get-sth", nil)
		resp, err := evidenceClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		w.Write([]byte(`{"domain":"` + r.PathValue("e2ld") + `","stale":[]}`))
	})
	api.Handle(apiMux)

	// Drive one request carrying our own traceparent, so the trace ID is
	// known up front. Both stores run at sample rate 0: only the failed
	// first attempt keeps this trace, on both daemons independently.
	caller := obs.NewRequestID()
	req, _ := http.NewRequest(http.MethodGet, api.URL+"/v1/domain/example.com/staleness", nil)
	req.Header.Set(obs.TraceHeader, caller.String())
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("staleness request status %d", resp.StatusCode)
	}

	// Fleet assembly: obsagg scrapes both daemons and stitches the shared
	// trace ID into one tree.
	agg, aggURL := fleettest.Aggregate(t, api, ct)
	agg.ScrapeOnce(context.Background())

	fresp, err := http.Get(aggURL + "/fleet/traces/" + caller.Trace())
	if err != nil {
		t.Fatal(err)
	}
	defer fresp.Body.Close()
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("/fleet/traces/{id} status %d", fresp.StatusCode)
	}
	var tree obs.TraceTreeJSON
	if err := json.NewDecoder(fresp.Body).Decode(&tree); err != nil {
		t.Fatal(err)
	}

	if len(tree.Services) != 2 || tree.Services[0] != "ctlogd" || tree.Services[1] != "staleapid" {
		t.Fatalf("stitched services = %v, want both daemons", tree.Services)
	}
	if !tree.Error || tree.KeepReason != obs.KeepError {
		t.Fatalf("trace error=%v keep=%q, want tail-kept by the error rule", tree.Error, tree.KeepReason)
	}
	if len(tree.Spans) != 1 {
		t.Fatalf("stitched tree has %d roots, want 1:\n%+v", len(tree.Spans), tree.Spans)
	}

	// The stitched anatomy, hop by hop: staleapid's server span, under it
	// the logical evidence call, under that the two numbered attempts, and
	// under EACH attempt the ctlogd server span that handled it.
	root := tree.Spans[0]
	if root.Kind != obs.SpanServer || root.Service != "staleapid" || root.Route != "/v1/domain/{e2ld}/staleness" {
		t.Fatalf("root span wrong: %+v", root.SpanRecord)
	}
	if len(root.Children) != 1 {
		t.Fatalf("root has %d children, want the one evidence call", len(root.Children))
	}
	call := root.Children[0]
	if call.Kind != obs.SpanCall || call.Attempt != 2 || call.Status != http.StatusOK {
		t.Fatalf("call span wrong: %+v", call.SpanRecord)
	}
	if len(call.Children) != 2 {
		t.Fatalf("call has %d attempt children, want 2 sibling attempts", len(call.Children))
	}
	for i, att := range call.Children {
		if att.Kind != obs.SpanClient || att.Attempt != i+1 {
			t.Fatalf("attempt %d span wrong: %+v", i+1, att.SpanRecord)
		}
		if len(att.Children) != 1 || att.Children[0].Service != "ctlogd" || att.Children[0].Kind != obs.SpanServer {
			t.Fatalf("attempt %d not stitched to its ctlogd server span: %+v", i+1, att.Children)
		}
		if att.Children[0].Status != att.Status {
			t.Fatalf("attempt %d status %d but its server span saw %d", i+1, att.Status, att.Children[0].Status)
		}
	}
	if call.Children[0].Status != http.StatusServiceUnavailable || call.Children[1].Status != http.StatusOK {
		t.Fatalf("attempt statuses = %d, %d; want 503 then 200",
			call.Children[0].Status, call.Children[1].Status)
	}

	// Exemplars: staleapid's latency histogram links the kept trace from its
	// exposition, in OpenMetrics syntax that ParseProm round-trips — the
	// same path the aggregator just used.
	mresp, err := http.Get(api.Debug + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(mbody), `# {trace_id="`+caller.Trace()+`"}`) {
		t.Fatalf("/metrics exposes no exemplar for the kept trace:\n%s", mbody)
	}
	samples, err := obs.ParseProm(strings.NewReader(string(mbody)))
	if err != nil {
		t.Fatalf("ParseProm rejected exemplar exposition: %v", err)
	}
	linked := false
	for _, s := range samples {
		if s.Name != "http_request_seconds" {
			continue
		}
		for _, b := range s.Buckets {
			if b.Exemplar != nil && b.Exemplar.TraceID == caller.Trace() {
				linked = true
			}
		}
	}
	if !linked {
		t.Fatal("parsed exposition lost the trace-ID exemplar")
	}
	// And the aggregator federated that histogram without choking on it.
	found := false
	for _, s := range agg.Federated() {
		if s.Name == "http_request_seconds" {
			found = true
		}
	}
	if !found {
		t.Fatal("aggregator did not federate the exemplar-bearing histogram")
	}
}
