package obsagg

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"stalecert/internal/obs"
)

// This file implements the fleet query language served at /fleet/query: a
// Prometheus-shaped expression evaluator over the obsagg TSDB, sized to its
// callers. The language is exactly what a built-in rule (rules.go),
// stalestat, a README example or an acceptance test says; the one list of
// those expressions, and of what is refused with which status, is the pair
// of tables in query_test.go (TestQueryLanguageIsItsUsers,
// TestQueryRejections). rate and irate are restart-aware: a value drop
// inside the window is a counter reset and contributes only the post-reset
// value.

// ---- AST ----

// exprNode is numLit, selectorNode, callNode, aggNode or binNode.
type exprNode interface{}

type numLit struct{ v float64 }

type selectorNode struct {
	name     string
	matchers []Matcher
	rng      time.Duration // 0 = instant selector
}

type callNode struct {
	fn   string
	args []exprNode
}

type aggNode struct {
	op  string
	by  []string
	arg exprNode
}

type binNode struct {
	op       string
	lhs, rhs exprNode
}

// ---- lexer ----

type token struct {
	kind byte // 'i' ident, 'n' number, 's' string, 'o' operator/punct, 0 EOF
	text string
}

func isIdentStart(c byte) bool {
	return c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}

func isIdentPart(c byte) bool { return isIdentStart(c) || (c >= '0' && c <= '9') || c == '.' }

func lex(src string) ([]token, error) {
	var toks []token
	i := 0
	for i < len(src) {
		c := src[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case isIdentStart(c):
			j := i + 1
			for j < len(src) && isIdentPart(src[j]) {
				j++
			}
			toks = append(toks, token{'i', src[i:j]})
			i = j
		case c >= '0' && c <= '9' || c == '.':
			j := i
			for j < len(src) && (src[j] >= '0' && src[j] <= '9' || src[j] == '.' ||
				src[j] == 'e' || src[j] == 'E' ||
				((src[j] == '+' || src[j] == '-') && j > i && (src[j-1] == 'e' || src[j-1] == 'E'))) {
				j++
			}
			toks = append(toks, token{'n', src[i:j]})
			i = j
		case c == '"' || c == '\'':
			quote := c
			j := i + 1
			var b strings.Builder
			for j < len(src) && src[j] != quote {
				if src[j] == '\\' && j+1 < len(src) {
					switch src[j+1] {
					case 'n':
						b.WriteByte('\n')
					default:
						b.WriteByte(src[j+1])
					}
					j += 2
					continue
				}
				b.WriteByte(src[j])
				j++
			}
			if j >= len(src) {
				return nil, fmt.Errorf("unterminated string at offset %d", i)
			}
			toks = append(toks, token{'s', b.String()})
			i = j + 1
		default:
			two := ""
			if i+1 < len(src) {
				two = src[i : i+2]
			}
			switch two {
			case "=~", "!~", "!=", "==", ">=", "<=":
				toks = append(toks, token{'o', two})
				i += 2
				continue
			}
			switch c {
			case '{', '}', '(', ')', '[', ']', ',', '=', '>', '<', '+', '-', '*', '/':
				toks = append(toks, token{'o', string(c)})
				i++
			default:
				return nil, fmt.Errorf("unexpected character %q at offset %d", c, i)
			}
		}
	}
	return toks, nil
}

// ---- parser ----

type parser struct {
	toks []token
	pos  int
}

func (p *parser) peek() token {
	if p.pos < len(p.toks) {
		return p.toks[p.pos]
	}
	return token{}
}

func (p *parser) next() token {
	t := p.peek()
	p.pos++
	return t
}

func (p *parser) expect(kind byte, text string) error {
	t := p.next()
	if t.kind != kind || (text != "" && t.text != text) {
		return fmt.Errorf("expected %q, got %q", text, t.text)
	}
	return nil
}

var aggOps = map[string]bool{"sum": true, "min": true, "max": true}

var queryFuncs = map[string]bool{"rate": true, "irate": true, "count_over_time": true, "histogram_quantile": true}

// binaryPrec ranks the binary operators: comparisons bind loosest, then
// + and -, then * and /. All are left-associative.
var binaryPrec = map[string]int{
	">": 1, "<": 1, ">=": 1, "<=": 1, "==": 1, "!=": 1,
	"+": 2, "-": 2,
	"*": 3, "/": 3,
}

// ParseQuery parses one fleet query expression.
func ParseQuery(src string) (exprNode, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks}
	n, err := p.parseExpr(1)
	if err != nil {
		return nil, err
	}
	if t := p.peek(); t.kind != 0 {
		return nil, fmt.Errorf("trailing input at %q", t.text)
	}
	return n, nil
}

// parseExpr parses a chain of binary operators binding at least as tightly
// as minPrec.
func (p *parser) parseExpr(minPrec int) (exprNode, error) {
	lhs, err := p.parsePrimary()
	if err != nil {
		return nil, err
	}
	for {
		t := p.peek()
		prec := binaryPrec[t.text]
		if t.kind != 'o' || prec == 0 || prec < minPrec {
			return lhs, nil
		}
		p.next()
		rhs, err := p.parseExpr(prec + 1)
		if err != nil {
			return nil, err
		}
		lhs = binNode{op: t.text, lhs: lhs, rhs: rhs}
	}
}

func (p *parser) parsePrimary() (exprNode, error) {
	t := p.peek()
	switch t.kind {
	case 'n':
		p.next()
		v, err := strconv.ParseFloat(t.text, 64)
		if err != nil {
			return nil, fmt.Errorf("bad number %q", t.text)
		}
		return numLit{v}, nil
	case 'o':
		if t.text == "(" {
			p.next()
			n, err := p.parseExpr(1)
			if err != nil {
				return nil, err
			}
			if err := p.expect('o', ")"); err != nil {
				return nil, err
			}
			return n, nil
		}
		return nil, fmt.Errorf("unexpected %q", t.text)
	case 'i':
		p.next()
		name := t.text
		nt := p.peek()
		call := nt.kind == 'o' && nt.text == "("
		switch {
		case aggOps[name] && (call || nt.kind == 'i' && nt.text == "by"):
			return p.parseAgg(name)
		case queryFuncs[name] && call:
			return p.parseCall(name)
		case call:
			return nil, fmt.Errorf("unknown function %q", name)
		}
		return p.parseSelector(name)
	}
	return nil, fmt.Errorf("unexpected end of query")
}

// parseAgg parses `op (expr)` and `op by (a, b) (expr)`.
func (p *parser) parseAgg(op string) (exprNode, error) {
	var by []string
	if t := p.peek(); t.kind == 'i' && t.text == "by" {
		p.next()
		var err error
		if by, err = p.parseLabelList(); err != nil {
			return nil, err
		}
	}
	if err := p.expect('o', "("); err != nil {
		return nil, err
	}
	arg, err := p.parseExpr(1)
	if err != nil {
		return nil, err
	}
	if err := p.expect('o', ")"); err != nil {
		return nil, err
	}
	return aggNode{op: op, by: by, arg: arg}, nil
}

// endOfElement consumes what must follow a list element: a comma, or the
// list's closing token (reported as done).
func (p *parser) endOfElement(closer string) (done bool, err error) {
	t := p.next()
	if t.kind == 'o' && (t.text == closer || t.text == ",") {
		return t.text == closer, nil
	}
	return false, fmt.Errorf("expected \",\" or %q, got %q", closer, t.text)
}

func (p *parser) parseLabelList() ([]string, error) {
	if err := p.expect('o', "("); err != nil {
		return nil, err
	}
	labels := []string{}
	for {
		t := p.next()
		if t.kind == 'o' && t.text == ")" {
			return labels, nil
		}
		if t.kind != 'i' {
			return nil, fmt.Errorf("expected label name, got %q", t.text)
		}
		labels = append(labels, t.text)
		if done, err := p.endOfElement(")"); done || err != nil {
			return labels, err
		}
	}
}

func (p *parser) parseCall(fn string) (exprNode, error) {
	if err := p.expect('o', "("); err != nil {
		return nil, err
	}
	var args []exprNode
	for {
		if t := p.peek(); t.kind == 'o' && t.text == ")" {
			p.next()
			break
		}
		a, err := p.parseExpr(1)
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		if done, err := p.endOfElement(")"); err != nil {
			return nil, err
		} else if done {
			break
		}
	}
	return callNode{fn: fn, args: args}, nil
}

func (p *parser) parseSelector(name string) (exprNode, error) {
	sel := selectorNode{name: name}
	if t := p.peek(); t.kind == 'o' && t.text == "{" {
		p.next()
		for {
			t := p.next()
			if t.kind == 'o' && t.text == "}" {
				break
			}
			if t.kind != 'i' {
				return nil, fmt.Errorf("expected label name in matcher, got %q", t.text)
			}
			opTok := p.next()
			var op MatchOp
			switch opTok.text {
			case "=":
				op = MatchEq
			case "!=":
				op = MatchNe
			case "=~":
				op = MatchRe
			case "!~":
				op = MatchNre
			default:
				return nil, fmt.Errorf("bad matcher operator %q", opTok.text)
			}
			val := p.next()
			if val.kind != 's' {
				return nil, fmt.Errorf("matcher value for %s must be a quoted string", t.text)
			}
			m, err := NewMatcher(t.text, op, val.text)
			if err != nil {
				return nil, err
			}
			sel.matchers = append(sel.matchers, m)
			if done, err := p.endOfElement("}"); err != nil {
				return nil, err
			} else if done {
				break
			}
		}
	}
	if t := p.peek(); t.kind == 'o' && t.text == "[" {
		p.next()
		dt := p.next()
		// Durations lex as number+ident ("90" "s") or as a single ident ("1m30s"
		// starts with a digit, so: number "1" + ident "m30s").
		spec := dt.text
		for {
			nt := p.peek()
			if nt.kind == 'i' || nt.kind == 'n' {
				p.next()
				spec += nt.text
				continue
			}
			break
		}
		d, err := time.ParseDuration(spec)
		if err != nil {
			return nil, fmt.Errorf("bad range duration %q", spec)
		}
		if d <= 0 {
			return nil, fmt.Errorf("range duration must be positive")
		}
		if err := p.expect('o', "]"); err != nil {
			return nil, err
		}
		sel.rng = d
	}
	return sel, nil
}

// ---- values ----

type vecSample struct {
	name     string // metric family, kept only for bare selectors
	labels   string
	pairs    []string
	v        float64
	exemplar *obs.Exemplar
}

type matrixSeries struct {
	labels   string
	pairs    []string
	pts      []Point
	exemplar *obs.Exemplar
}

// queryValue is float64 (a number literal), []vecSample or []matrixSeries.
type queryValue interface{}

// ---- evaluator ----

type evalCtx struct {
	db *TSDB
	at time.Time
}

// evalInstant evaluates node at one instant. The answer is a float64 or a
// []vecSample: a range vector is only ever an argument.
func evalInstant(db *TSDB, node exprNode, at time.Time) (queryValue, error) {
	v, err := (&evalCtx{db: db, at: at}).eval(node)
	if _, isMatrix := v.([]matrixSeries); isMatrix {
		return nil, fmt.Errorf("a range vector is not an answer: wrap it in rate(), irate() or count_over_time()")
	}
	return v, err
}

// vectorOf is an instant answer as samples: a number becomes one unlabelled
// sample.
func vectorOf(v queryValue) []vecSample {
	if f, ok := v.(float64); ok {
		return []vecSample{{v: f}}
	}
	vec, _ := v.([]vecSample)
	return vec
}

func (c *evalCtx) eval(node exprNode) (queryValue, error) {
	switch n := node.(type) {
	case numLit:
		return n.v, nil
	case selectorNode:
		if n.rng > 0 {
			sel := c.db.Select(n.name, n.matchers, c.at.Add(-n.rng), c.at)
			out := make([]matrixSeries, 0, len(sel))
			for _, sd := range sel {
				out = append(out, matrixSeries{labels: sd.Labels, pairs: sd.Pairs, pts: sd.Points, exemplar: sd.Exemplar})
			}
			return out, nil
		}
		sel := c.db.Latest(n.name, n.matchers, c.at)
		out := make([]vecSample, 0, len(sel))
		for _, sd := range sel {
			out = append(out, vecSample{name: sd.Name, labels: sd.Labels, pairs: sd.Pairs,
				v: sd.Points[0].V, exemplar: sd.Exemplar})
		}
		return out, nil
	case callNode:
		return c.evalCall(n)
	case aggNode:
		return c.evalAgg(n)
	case binNode:
		return c.evalBin(n)
	}
	return nil, fmt.Errorf("unknown expression node")
}

// evalVector evaluates an operand that must be an instant vector; what names
// the operand in the error.
func (c *evalCtx) evalVector(node exprNode, what string) ([]vecSample, error) {
	v, err := c.eval(node)
	if err != nil {
		return nil, err
	}
	vec, ok := v.([]vecSample)
	if !ok {
		return nil, fmt.Errorf("%s expects an instant vector", what)
	}
	return vec, nil
}

func (c *evalCtx) evalCall(n callNode) (queryValue, error) {
	if n.fn == "histogram_quantile" {
		if len(n.args) != 2 {
			return nil, fmt.Errorf("histogram_quantile expects (q, bucket-vector)")
		}
		q, ok := n.args[0].(numLit)
		if !ok {
			return nil, fmt.Errorf("histogram_quantile quantile must be a number")
		}
		vec, err := c.evalVector(n.args[1], "histogram_quantile")
		if err != nil {
			return nil, err
		}
		return histogramQuantileVec(q.v, vec), nil
	}
	if len(n.args) != 1 {
		return nil, fmt.Errorf("%s expects exactly one range-vector argument", n.fn)
	}
	v, err := c.eval(n.args[0])
	if err != nil {
		return nil, err
	}
	mat, ok := v.([]matrixSeries)
	if !ok {
		return nil, fmt.Errorf("%s expects a range vector (did you forget [duration]?)", n.fn)
	}
	var out []vecSample
	for _, sr := range mat {
		if v, ok := rangeFunc(n.fn, sr.pts); ok {
			out = append(out, vecSample{labels: sr.labels, pairs: sr.pairs, v: v, exemplar: sr.exemplar})
		}
	}
	return out, nil
}

// rangeFunc folds one series' window into a value. rate adjusts for counter
// resets across the whole window (a drop adds the pre-reset value back);
// irate uses only the last two points, treating a drop as a reset to zero —
// the instantaneous variant the burst alert rule relies on. Both need two
// points a positive time apart.
func rangeFunc(fn string, pts []Point) (float64, bool) {
	if fn == "count_over_time" {
		return float64(len(pts)), len(pts) > 0
	}
	if len(pts) < 2 {
		return 0, false
	}
	switch fn {
	case "irate":
		a, b := pts[len(pts)-2], pts[len(pts)-1]
		dt := b.T.Sub(a.T).Seconds()
		if dt <= 0 {
			return 0, false
		}
		dv := b.V - a.V
		if dv < 0 {
			dv = b.V
		}
		return dv / dt, true
	case "rate":
		first, last := pts[0], pts[len(pts)-1]
		dt := last.T.Sub(first.T).Seconds()
		if dt <= 0 {
			return 0, false
		}
		adj := 0.0
		prev := first.V
		for _, p := range pts[1:] {
			if p.V < prev {
				adj += prev
			}
			prev = p.V
		}
		return (last.V - first.V + adj) / dt, true
	}
	return 0, false
}

// histogramQuantileVec groups a _bucket vector by its labels minus le and
// computes the quantile per group from the cumulative bucket counts. The
// result carries the exemplar of the bucket the quantile lands in, so a p99
// answer links straight to a sampled slow trace.
func histogramQuantileVec(q float64, vec []vecSample) []vecSample {
	type group struct {
		pairs   []string
		buckets []obs.QuantileBucket
	}
	groups := make(map[string]*group)
	order := []string{}
	for _, s := range vec {
		le, ok := pairValue(s.pairs, "le")
		if !ok {
			continue
		}
		bound, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		rest := dropPair(s.pairs, "le")
		key := obs.FormatLabels(rest)
		g := groups[key]
		if g == nil {
			g = &group{pairs: rest}
			groups[key] = g
			order = append(order, key)
		}
		g.buckets = append(g.buckets, obs.QuantileBucket{Bound: bound, Count: s.v, Exemplar: s.exemplar})
	}
	sort.Strings(order)
	var out []vecSample
	for _, key := range order {
		g := groups[key]
		v, ex := obs.Quantile(q, g.buckets)
		out = append(out, vecSample{labels: key, pairs: g.pairs, v: v, exemplar: ex})
	}
	return out
}

func dropPair(pairs []string, key string) []string {
	out := make([]string, 0, len(pairs))
	for i := 0; i+1 < len(pairs); i += 2 {
		if pairs[i] != key {
			out = append(out, pairs[i], pairs[i+1])
		}
	}
	return out
}

func keepPairs(pairs []string, keys []string) []string {
	var out []string
	for _, k := range keys {
		if v, ok := pairValue(pairs, k); ok {
			out = append(out, k, v)
		}
	}
	return out
}

func (c *evalCtx) evalAgg(n aggNode) (queryValue, error) {
	vec, err := c.evalVector(n.arg, n.op)
	if err != nil {
		return nil, err
	}
	groups := make(map[string]*vecSample)
	order := []string{}
	for _, s := range vec {
		kept := keepPairs(s.pairs, n.by)
		key := obs.FormatLabels(kept)
		g := groups[key]
		if g == nil {
			groups[key] = &vecSample{labels: key, pairs: kept, v: s.v, exemplar: s.exemplar}
			order = append(order, key)
			continue
		}
		switch n.op {
		case "sum":
			g.v += s.v
		case "min":
			g.v = math.Min(g.v, s.v)
		case "max":
			g.v = math.Max(g.v, s.v)
		}
		if g.exemplar == nil {
			g.exemplar = s.exemplar
		}
	}
	sort.Strings(order)
	out := make([]vecSample, 0, len(groups))
	for _, key := range order {
		out = append(out, *groups[key])
	}
	return out, nil
}

func applyOp(op string, a, b float64) float64 {
	switch op {
	case "+":
		return a + b
	case "-":
		return a - b
	case "*":
		return a * b
	case "/":
		return a / b
	}
	return math.NaN()
}

func compare(op string, a, b float64) bool {
	switch op {
	case ">":
		return a > b
	case "<":
		return a < b
	case ">=":
		return a >= b
	case "<=":
		return a <= b
	case "==":
		return a == b
	case "!=":
		return a != b
	}
	return false
}

// evalBin applies op to every sample of the left-hand vector and its
// partner: the right-hand number, or the right-hand sample with the identical
// label set — so both sides of a ratio like
// sum by (job) (errors) / sum by (job) (total) line up, and a left sample
// without a partner drops out. A comparison filters; arithmetic yields a new,
// nameless value.
func (c *evalCtx) evalBin(n binNode) (queryValue, error) {
	lvec, err := c.evalVector(n.lhs, "the left of "+n.op)
	if err != nil {
		return nil, err
	}
	rv, err := c.eval(n.rhs)
	if err != nil {
		return nil, err
	}
	scalar, rIsScalar := rv.(float64)
	rvec, rIsVec := rv.([]vecSample)
	if !rIsScalar && !rIsVec {
		return nil, fmt.Errorf("the right of %s expects an instant vector or a number (range vectors need a function like rate())", n.op)
	}
	rhs := make(map[string]float64, len(rvec))
	for _, s := range rvec {
		rhs[s.labels] = s.v
	}
	var out []vecSample
	for _, s := range lvec {
		other, ok := scalar, rIsScalar
		if rIsVec {
			other, ok = rhs[s.labels]
		}
		if !ok {
			continue
		}
		if binaryPrec[n.op] == 1 { // a comparison
			if compare(n.op, s.v, other) {
				out = append(out, s)
			}
			continue
		}
		s.name = ""
		s.v = applyOp(n.op, s.v, other)
		out = append(out, s)
	}
	return out, nil
}

// ---- HTTP surface ----

const maxRangeSteps = 11000

type queryJSONData struct {
	ResultType string `json:"resultType"`
	Result     any    `json:"result"`
}

type queryJSON struct {
	Status string         `json:"status"`
	Data   *queryJSONData `json:"data,omitempty"`
	Error  string         `json:"error,omitempty"`
}

type vectorJSON struct {
	Metric  map[string]string `json:"metric"`
	Value   [2]any            `json:"value"`
	TraceID string            `json:"trace_id,omitempty"`
}

type matrixJSON struct {
	Metric map[string]string `json:"metric"`
	Values [][2]any          `json:"values"`
}

func metricMap(name string, pairs []string) map[string]string {
	m := make(map[string]string, len(pairs)/2+1)
	if name != "" {
		m["__name__"] = name
	}
	for i := 0; i+1 < len(pairs); i += 2 {
		m[pairs[i]] = pairs[i+1]
	}
	return m
}

func jsonValue(t time.Time, v float64) [2]any {
	return [2]any{float64(t.UnixMilli()) / 1000, strconv.FormatFloat(v, 'g', -1, 64)}
}

func writeQueryError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(queryJSON{Status: "error", Error: err.Error()})
}

func parseQueryTime(s string, fallback time.Time) (time.Time, error) {
	if s == "" {
		return fallback, nil
	}
	if secs, err := strconv.ParseFloat(s, 64); err == nil {
		return time.Unix(0, int64(secs*1e9)), nil
	}
	if t, err := time.Parse(time.RFC3339Nano, s); err == nil {
		return t, nil
	}
	return time.Time{}, fmt.Errorf("bad timestamp %q (unix seconds or RFC3339)", s)
}

// parseQueryStep reads a step as a Go duration or in seconds. Anything that
// is not a positive time.Duration once converted — a step that rounds to
// zero, or one past the largest duration, which would convert to a
// negative — is an error.
func parseQueryStep(s string) (time.Duration, error) {
	if s == "" {
		return 15 * time.Second, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		if secs, ferr := strconv.ParseFloat(s, 64); ferr == nil && secs > 0 && secs < math.MaxInt64/float64(time.Second) {
			d, err = time.Duration(secs*float64(time.Second)), nil
		}
	}
	if err != nil || d <= 0 {
		return 0, fmt.Errorf("bad step %q", s)
	}
	return d, nil
}

// handleFleetQuery serves GET /fleet/query: ?query=<expr> with either
// ?time= (instant; default now) or ?start=&end=&step= (range). Responses
// use the Prometheus HTTP API shape — a scalar or a vector for an instant,
// a matrix for a range — with trace_id carried on vector entries whose value
// descends from an exemplar-bearing bucket. An expression that does not
// parse is a 400, one that parses and cannot be evaluated a 422.
func (a *Aggregator) handleFleetQuery(w http.ResponseWriter, r *http.Request) {
	q := r.FormValue("query")
	if q == "" {
		writeQueryError(w, http.StatusBadRequest, fmt.Errorf("missing query parameter"))
		return
	}
	node, err := ParseQuery(q)
	if err != nil {
		writeQueryError(w, http.StatusBadRequest, fmt.Errorf("parse error: %w", err))
		return
	}
	db := a.tsdb()
	now := a.now()
	if r.FormValue("start") != "" || r.FormValue("end") != "" {
		start, err := parseQueryTime(r.FormValue("start"), now.Add(-time.Hour))
		if err != nil {
			writeQueryError(w, http.StatusBadRequest, err)
			return
		}
		end, err := parseQueryTime(r.FormValue("end"), now)
		if err != nil {
			writeQueryError(w, http.StatusBadRequest, err)
			return
		}
		step, err := parseQueryStep(r.FormValue("step"))
		if err != nil {
			writeQueryError(w, http.StatusBadRequest, err)
			return
		}
		if end.Before(start) {
			writeQueryError(w, http.StatusBadRequest, fmt.Errorf("end precedes start"))
			return
		}
		// A span past the largest duration saturates: reject it rather than
		// count its steps short.
		if span := end.Sub(start); span == math.MaxInt64 || span/step > maxRangeSteps {
			writeQueryError(w, http.StatusBadRequest, fmt.Errorf("range of %s at step %s exceeds %d steps", span, step, maxRangeSteps))
			return
		}
		series := make(map[string]*matrixJSON)
		order := []string{}
		for at := start; !at.After(end); at = at.Add(step) {
			v, err := evalInstant(db, node, at)
			if err != nil {
				writeQueryError(w, http.StatusUnprocessableEntity, err)
				return
			}
			for _, s := range vectorOf(v) {
				key := s.name + s.labels
				sr := series[key]
				if sr == nil {
					sr = &matrixJSON{Metric: metricMap(s.name, s.pairs)}
					series[key] = sr
					order = append(order, key)
				}
				sr.Values = append(sr.Values, jsonValue(at, s.v))
			}
		}
		sort.Strings(order)
		result := make([]matrixJSON, 0, len(order))
		for _, key := range order {
			result = append(result, *series[key])
		}
		writeQueryJSON(w, "matrix", result)
		return
	}
	at, err := parseQueryTime(r.FormValue("time"), now)
	if err != nil {
		writeQueryError(w, http.StatusBadRequest, err)
		return
	}
	v, err := evalInstant(db, node, at)
	if err != nil {
		writeQueryError(w, http.StatusUnprocessableEntity, err)
		return
	}
	if f, ok := v.(float64); ok {
		writeQueryJSON(w, "scalar", jsonValue(at, f))
		return
	}
	vec := vectorOf(v)
	result := make([]vectorJSON, 0, len(vec))
	for _, s := range vec {
		e := vectorJSON{Metric: metricMap(s.name, s.pairs), Value: jsonValue(at, s.v)}
		if s.exemplar != nil {
			e.TraceID = s.exemplar.TraceID
		}
		result = append(result, e)
	}
	writeQueryJSON(w, "vector", result)
}

func writeQueryJSON(w http.ResponseWriter, resultType string, result any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_ = json.NewEncoder(w).Encode(queryJSON{Status: "success",
		Data: &queryJSONData{ResultType: resultType, Result: result}})
}
