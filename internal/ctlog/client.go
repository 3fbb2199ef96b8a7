package ctlog

import (
	"bytes"
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"stalecert/internal/merkle"
	"stalecert/internal/obs"
	"stalecert/internal/resil"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// Scraper-side metrics: entries pulled, lag behind the log's tree head at
// poll start, and full-scrape latency.
var (
	mScrapeEntries = obs.Default().Counter("ctlog_scrape_entries_total")
	mScrapeRounds  = obs.Default().Counter("ctlog_scrape_rounds_total")
	mScrapeLag     = obs.Default().Gauge("ctlog_scrape_lag_entries")
	mScrapeSTHSize = obs.Default().Gauge("ctlog_scrape_sth_tree_size")
	mScrapeSecs    = obs.Default().Histogram("ctlog_scrape_seconds", nil)
)

// Client talks to a CT log server over HTTP. The zero value is not usable;
// construct with NewClient.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient creates a client for the log at baseURL (e.g. the httptest server
// URL). If hc is nil, the default client is used. Either way the client is
// wrapped in the full resilience stack — retries with backoff, per-peer
// circuit breaking, and obs instrumentation (request-ID propagation,
// per-peer latency/outcome metrics) — unless it already is.
func NewClient(baseURL string, hc *http.Client) *Client {
	return NewClientWithOptions(baseURL, hc, resil.Options{Service: "ctlog-client"})
}

// NewClientWithOptions creates a client with explicit resilience options
// (daemons pass their resil.Flags.Options; fleets pass their own breakers,
// span store and retry policy).
func NewClientWithOptions(baseURL string, hc *http.Client, opts resil.Options) *Client {
	if opts.Service == "" {
		opts.Service = "ctlog-client"
	}
	return &Client{base: baseURL, hc: resil.InstrumentClient(hc, opts)}
}

// RemoteError is a non-2xx response from the log.
type RemoteError struct {
	StatusCode int
	Message    string
}

func (e *RemoteError) Error() string {
	return fmt.Sprintf("ctlog: remote error %d: %s", e.StatusCode, e.Message)
}

func (c *Client) get(ctx context.Context, path string, q url.Values, out any) error {
	u := c.base + path
	if len(q) > 0 {
		u += "?" + q.Encode()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return err
	}
	return c.do(req, out)
}

func (c *Client) do(req *http.Request, out any) error {
	resp, err := c.send(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// send performs the request and turns a non-2xx answer into a RemoteError;
// the caller closes the body of the response it gets.
func (c *Client) send(req *http.Request) (*http.Response, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 == 2 {
		return resp, nil
	}
	defer resp.Body.Close()
	var e errorResponse
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	if json.Unmarshal(msg, &e) == nil && e.Error != "" {
		return nil, &RemoteError{StatusCode: resp.StatusCode, Message: e.Error}
	}
	return nil, &RemoteError{StatusCode: resp.StatusCode, Message: string(msg)}
}

// AddChain submits a certificate and returns the log's SCT.
func (c *Client) AddChain(ctx context.Context, cert *x509sim.Certificate) (SCT, error) {
	raw, err := json.Marshal(addChainRequest{Chain: []string{base64.StdEncoding.EncodeToString(cert.Marshal())}})
	if err != nil {
		return SCT{}, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/ct/v1/add-chain", bytes.NewReader(raw))
	if err != nil {
		return SCT{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	var resp addChainResponse
	if err := c.do(req, &resp); err != nil {
		return SCT{}, err
	}
	sct := SCT{LogName: resp.LogName, Index: resp.Index, Timestamp: simtime.Day(resp.Timestamp)}
	sig, err := base64.StdEncoding.DecodeString(resp.Signature)
	if err != nil || len(sig) != 32 {
		return SCT{}, errors.New("ctlog: malformed SCT signature")
	}
	copy(sct.Signature[:], sig)
	return sct, nil
}

// GetSTH fetches the current signed tree head.
func (c *Client) GetSTH(ctx context.Context) (SignedTreeHead, error) {
	var resp getSTHResponse
	if err := c.get(ctx, "/ct/v1/get-sth", nil, &resp); err != nil {
		return SignedTreeHead{}, err
	}
	sth := SignedTreeHead{LogName: resp.LogName, Size: resp.TreeSize, Timestamp: simtime.Day(resp.Timestamp)}
	root, err := base64.StdEncoding.DecodeString(resp.RootHash)
	if err != nil || len(root) != 32 {
		return SignedTreeHead{}, errors.New("ctlog: malformed root hash")
	}
	copy(sth.Root[:], root)
	sig, err := base64.StdEncoding.DecodeString(resp.Signature)
	if err != nil || len(sig) != 32 {
		return SignedTreeHead{}, errors.New("ctlog: malformed STH signature")
	}
	copy(sth.Signature[:], sig)
	return sth, nil
}

// GetEntries fetches entries in [start, end] inclusive. The server may
// return fewer than requested; callers should page until satisfied (or use
// Scrape). A server that returns more is refused: the surplus would lie past
// whatever the caller bounded the range by (Scrape: the tree head it fetched).
func (c *Client) GetEntries(ctx context.Context, start, end uint64) ([]Entry, error) {
	u := c.base + "/ct/v1/get-entries?start=" + strconv.FormatUint(start, 10) + "&end=" + strconv.FormatUint(end, 10)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.send(req)
	if err != nil {
		return nil, err
	}
	body, err := resil.ReadBody(resp, resil.DefaultMaxBodyBytes)
	if err != nil {
		return nil, fmt.Errorf("ctlog: get-entries: %w", err)
	}
	entries, err := decodeEntries(body, start)
	if err != nil {
		return nil, err
	}
	if start <= end && uint64(len(entries)) > end-start+1 {
		return nil, fmt.Errorf("ctlog: log returned %d entries for [%d, %d]", len(entries), start, end)
	}
	return entries, nil
}

// decodeEntries decodes a get-entries body whose first entry has index
// start. The exact shape this package's server writes is scanned in one
// pass; any other byte (whitespace, an escape, extra_data: what another RFC
// 6962 log may send) and any failure hands the whole body to
// decodeEntriesJSON, whose result is then the answer.
func decodeEntries(body []byte, start uint64) ([]Entry, error) {
	if entries, ok := scanEntries(body, start); ok {
		return entries, nil
	}
	return decodeEntriesJSON(body, start)
}

// scanEntries decodes a body of the exact shape entriesJSON writes, with or
// without the final newline, and reports false for every other body.
func scanEntries(body []byte, start uint64) ([]Entry, bool) {
	rest, ok := bytes.CutPrefix(body, []byte(entriesOpen))
	if !ok {
		return nil, false
	}
	entries := make([]Entry, 0, min(bytes.Count(rest, []byte(entryOpen)), MaxEntriesPerGet))
	var scratch []byte
	for {
		if rest, ok = bytes.CutPrefix(rest, []byte(entryOpen)); !ok {
			return nil, false
		}
		end := bytes.IndexByte(rest, '"')
		if end < 0 {
			return nil, false
		}
		if n := base64.StdEncoding.DecodedLen(end); n > len(scratch) {
			scratch = make([]byte, n)
		}
		n, err := base64.StdEncoding.Decode(scratch, rest[:end])
		// Decode skips CR and LF, which JSON does not allow inside a string.
		if err != nil || base64.StdEncoding.EncodedLen(n) != end {
			return nil, false
		}
		e, err := DecodeLeafInput(scratch[:n])
		if err != nil {
			return nil, false
		}
		e.Index = start + uint64(len(entries))
		entries = append(entries, e)
		if rest, ok = bytes.CutPrefix(rest[end:], []byte(entryClose)); !ok || len(rest) == 0 {
			return nil, false
		}
		if rest[0] != ',' {
			// A json.Encoder ends the body with a newline, json.Marshal does not.
			return entries, string(rest) == entriesClose || string(rest) == entriesClose+"\n"
		}
		rest = rest[1:]
	}
}

// decodeEntriesJSON is the encoding/json decode of a get-entries body: the
// path every body took before scanEntries, what a body scanEntries declines
// still takes, and the oracle FuzzGetEntriesDecode holds scanEntries to.
func decodeEntriesJSON(body []byte, start uint64) ([]Entry, error) {
	var resp getEntriesResponse
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&resp); err != nil {
		return nil, err
	}
	entries := make([]Entry, 0, len(resp.Entries))
	for i, ej := range resp.Entries {
		raw, err := base64.StdEncoding.DecodeString(ej.LeafInput)
		if err != nil {
			return nil, fmt.Errorf("ctlog: entry %d: %w", i, err)
		}
		e, err := DecodeLeafInput(raw)
		if err != nil {
			return nil, fmt.Errorf("ctlog: entry %d: %w", i, err)
		}
		e.Index = start + uint64(i)
		entries = append(entries, e)
	}
	return entries, nil
}

// GetConsistency fetches a consistency proof between two tree sizes.
func (c *Client) GetConsistency(ctx context.Context, first, second uint64) ([]merkle.Hash, error) {
	q := url.Values{}
	q.Set("first", fmt.Sprint(first))
	q.Set("second", fmt.Sprint(second))
	var resp getConsistencyResponse
	if err := c.get(ctx, "/ct/v1/get-sth-consistency", q, &resp); err != nil {
		return nil, err
	}
	return decodeHashes(resp.Consistency)
}

// ScrapeOptions tunes Scrape.
type ScrapeOptions struct {
	// BatchSize is the get-entries page size (default MaxEntriesPerGet).
	BatchSize uint64
	// From resumes scraping at this index (for incremental monitors).
	From uint64
}

// Scrape downloads the log from opts.From up to the current STH, checking
// that entries arrive contiguous. It returns the entries and the STH they
// were fetched under.
func (c *Client) Scrape(ctx context.Context, opts ScrapeOptions) ([]Entry, SignedTreeHead, error) {
	sth, err := c.GetSTH(ctx)
	if err != nil {
		return nil, SignedTreeHead{}, err
	}
	var entries []Entry
	err = c.ScrapePages(ctx, sth, opts, func(page []Entry) error {
		entries = append(entries, page...)
		return nil
	})
	if err != nil {
		return nil, SignedTreeHead{}, err
	}
	return entries, sth, nil
}

// ScrapePages is Scrape for a caller that consumes the log as it arrives and
// brings the head: it downloads [opts.From, sth.Size) under an STH the caller
// fetched, and may have verified against an older one first. fn gets each
// page in index order and owns the slice. An error from fn ends the round and
// is returned as it is.
func (c *Client) ScrapePages(ctx context.Context, sth SignedTreeHead, opts ScrapeOptions, fn func(page []Entry) error) error {
	began := time.Now()
	mScrapeSTHSize.Set(float64(sth.Size))
	if sth.Size > opts.From {
		mScrapeLag.Set(float64(sth.Size - opts.From))
	} else {
		mScrapeLag.Set(0)
	}
	batch := opts.BatchSize
	if batch == 0 {
		batch = MaxEntriesPerGet
	}
	for start := opts.From; start < sth.Size; {
		end := start + batch - 1
		if end >= sth.Size {
			end = sth.Size - 1
		}
		got, err := c.GetEntries(ctx, start, end)
		if err != nil {
			return fmt.Errorf("ctlog: scrape [%d,%d]: %w", start, end, err)
		}
		if len(got) == 0 {
			return fmt.Errorf("ctlog: scrape stalled at %d", start)
		}
		for i, e := range got {
			if e.Index != start+uint64(i) {
				return fmt.Errorf("ctlog: non-contiguous entries: got %d at position %d", e.Index, start+uint64(i))
			}
		}
		start += uint64(len(got))
		mScrapeEntries.Add(uint64(len(got)))
		mScrapeLag.Set(float64(sth.Size - start)) // 0 once caught up to the head the round runs under
		if err := fn(got); err != nil {
			return err
		}
	}
	mScrapeRounds.Inc()
	mScrapeSecs.Observe(time.Since(began).Seconds())
	return nil
}
