package obsagg

import (
	"encoding/json"
	"net/url"
	"testing"
)

// FuzzFleetQuery: an expression and its time parameters are bytes any client
// of /fleet/query sends. ParseQuery never panics, and the handler answers
// every input, instant or range, within serveQuery's bound: 200 with a
// result, 400 for what does not parse (everything ParseQuery refuses among
// it) or 422 for what cannot be evaluated, always as a JSON body whose
// status says which. A start or an end makes the request a range query, as
// it does for the handler. Seeds are the expressions of
// TestQueryLanguageIsItsUsers and TestQueryRejections, under testdata/fuzz.
func FuzzFleetQuery(f *testing.F) {
	db := queryDB(f)
	f.Fuzz(func(t *testing.T, expr, at, start, end, step string) {
		_, perr := ParseQuery(expr)
		q := url.Values{"query": {expr}}
		for k, v := range map[string]string{"time": at, "start": start, "end": end, "step": step} {
			if v != "" {
				q.Set(k, v)
			}
		}
		rec := serveQuery(t, db, q.Encode())
		var r struct{ Status, Error string }
		if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
			t.Fatalf("%d answer is not JSON: %q", rec.Code, rec.Body)
		}
		switch {
		case rec.Code != 200 && rec.Code != 400 && rec.Code != 422:
			t.Fatalf("status %d (%s)", rec.Code, r.Error)
		case (rec.Code == 200) != (r.Status == "success"):
			t.Fatalf("status %d with body status %q", rec.Code, r.Status)
		case perr != nil && expr != "" && rec.Code != 400:
			t.Fatalf("ParseQuery refused %q (%v) but the handler answered %d", expr, perr, rec.Code)
		}
	})
}
