package ctlog

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"

	"stalecert/internal/merkle"
	"stalecert/internal/obs"
	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// Server-side metrics: request counts per endpoint, entries paged out, and
// add-chain outcomes.
var (
	mEntriesServed = obs.Default().Counter("ctlog_entries_served_total")
	mReqAddChain   = obs.Default().Counter("ctlog_requests_total", "endpoint", "add-chain")
	mReqGetSTH     = obs.Default().Counter("ctlog_requests_total", "endpoint", "get-sth")
	mReqGetEntries = obs.Default().Counter("ctlog_requests_total", "endpoint", "get-entries")
	mReqProof      = obs.Default().Counter("ctlog_requests_total", "endpoint", "get-proof-by-hash")
	mReqConsist    = obs.Default().Counter("ctlog_requests_total", "endpoint", "get-sth-consistency")
	mAddChainOK    = obs.Default().Counter("ctlog_addchain_total", "outcome", "ok")
	mAddChainErr   = obs.Default().Counter("ctlog_addchain_total", "outcome", "error")
)

// Wire representations mirror RFC 6962's JSON bodies.

type addChainRequest struct {
	Chain []string `json:"chain"` // base64 certificate encodings; [0] is the leaf
}

type addChainResponse struct {
	LogName   string `json:"log_name"`
	Index     uint64 `json:"leaf_index"`
	Timestamp int64  `json:"timestamp"`
	Signature string `json:"signature"`
}

type getSTHResponse struct {
	LogName   string `json:"log_name"`
	TreeSize  uint64 `json:"tree_size"`
	Timestamp int64  `json:"timestamp"`
	RootHash  string `json:"sha256_root_hash"`
	Signature string `json:"tree_head_signature"`
}

type getEntriesResponse struct {
	Entries []entryJSON `json:"entries"`
}

type entryJSON struct {
	LeafInput string `json:"leaf_input"`
}

type getProofByHashResponse struct {
	LeafIndex uint64   `json:"leaf_index"`
	AuditPath []string `json:"audit_path"`
}

type getConsistencyResponse struct {
	Consistency []string `json:"consistency"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// MaxEntriesPerGet caps a single get-entries response, like production logs'
// batch limits; clients must page.
const MaxEntriesPerGet = 256

// Server exposes a Log over the RFC 6962 HTTP endpoints. The submission
// timestamp comes from the server's simulated clock, which the harness
// advances with SetNow.
type Server struct {
	log      *Log
	nameJSON []byte // the log name as a JSON string, for add-chain responses
	now      atomic.Int64
}

// NewServer wraps a log.
func NewServer(log *Log) *Server {
	name, _ := json.Marshal(log.Name())
	return &Server{log: log, nameJSON: name}
}

// SetNow advances the server's simulated clock.
func (s *Server) SetNow(d simtime.Day) { s.now.Store(int64(d)) }

// Handler returns the HTTP handler serving the CT API under /ct/v1/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /ct/v1/add-chain", s.handleAddChain)
	mux.HandleFunc("GET /ct/v1/get-sth", s.handleGetSTH)
	mux.HandleFunc("GET /ct/v1/get-entries", s.handleGetEntries)
	mux.HandleFunc("GET /ct/v1/get-proof-by-hash", s.handleProofByHash)
	mux.HandleFunc("GET /ct/v1/get-sth-consistency", s.handleConsistency)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// maxAddChainBody caps an add-chain body at a chain of four of the longest
// certificates x509sim encodes, base64 in JSON strings, plus a kilobyte of
// syntax and whitespace: a larger body is a 413, unread past the cap.
const maxAddChainBody = 4*((x509sim.MaxMarshaledLen+2)/3*4+3) + 1024

func (s *Server) handleAddChain(w http.ResponseWriter, r *http.Request) {
	mReqAddChain.Inc()
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxAddChainBody))
	if err != nil {
		status := http.StatusBadRequest
		if errors.As(err, new(*http.MaxBytesError)) {
			status = http.StatusRequestEntityTooLarge
		}
		writeErr(w, status, fmt.Errorf("read request: %w", err))
		return
	}
	raw, ok := scanAddChain(body)
	if !ok {
		if raw, err = decodeAddChainJSON(body); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	}
	cert, err := x509sim.Unmarshal(raw)
	if err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("parse leaf: %w", err))
		return
	}
	sct, err := s.log.AddChain(cert, simtime.Day(s.now.Load()))
	if err != nil {
		mAddChainErr.Inc()
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	mAddChainOK.Inc()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(s.appendSCT(make([]byte, 0, 128), sct))
}

// The fixed bytes of the add-chain body Client.AddChain sends.
const (
	chainOpen  = `{"chain":["`
	chainClose = `"]}`
)

// scanAddChain decodes the leaf of a body of exactly the shape Client.AddChain
// sends, with or without a final newline, in one pass. It reports false for
// every other body (whitespace, an escape, a longer chain: what another
// client may send), which decodeAddChainJSON then decodes.
func scanAddChain(body []byte) ([]byte, bool) {
	rest, ok := bytes.CutPrefix(body, []byte(chainOpen))
	end := bytes.IndexByte(rest, '"')
	if !ok || end < 0 || string(rest[end:]) != chainClose && string(rest[end:]) != chainClose+"\n" {
		return nil, false
	}
	raw := make([]byte, base64.StdEncoding.DecodedLen(end))
	n, err := base64.StdEncoding.Decode(raw, rest[:end])
	// Decode skips CR and LF, which JSON does not allow inside a string.
	return raw[:n], err == nil && base64.StdEncoding.EncodedLen(n) == end
}

// decodeAddChainJSON is the encoding/json decode of an add-chain body: the
// path every body took before scanAddChain, and the oracle
// FuzzAddChainRequest holds the scan to.
func decodeAddChainJSON(body []byte) ([]byte, error) {
	var req addChainRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return nil, fmt.Errorf("decode request: %w", err)
	}
	if len(req.Chain) == 0 {
		return nil, errors.New("empty chain")
	}
	raw, err := base64.StdEncoding.DecodeString(req.Chain[0])
	if err != nil {
		return nil, fmt.Errorf("decode leaf: %w", err)
	}
	return raw, nil
}

// appendSCT appends the add-chain response for sct, byte for byte what
// json.Encoder makes of an addChainResponse.
func (s *Server) appendSCT(b []byte, sct SCT) []byte {
	b = append(b, `{"log_name":`...)
	b = append(b, s.nameJSON...)
	b = append(b, `,"leaf_index":`...)
	b = strconv.AppendUint(b, sct.Index, 10)
	b = append(b, `,"timestamp":`...)
	b = strconv.AppendInt(b, int64(sct.Timestamp), 10)
	b = append(b, `,"signature":"`...)
	b = base64.StdEncoding.AppendEncode(b, sct.Signature[:])
	return append(b, "\"}\n"...)
}

func (s *Server) handleGetSTH(w http.ResponseWriter, _ *http.Request) {
	mReqGetSTH.Inc()
	sth := s.log.STH()
	writeJSON(w, http.StatusOK, getSTHResponse{
		LogName:   sth.LogName,
		TreeSize:  sth.Size,
		Timestamp: int64(sth.Timestamp),
		RootHash:  base64.StdEncoding.EncodeToString(sth.Root[:]),
		Signature: base64.StdEncoding.EncodeToString(sth.Signature[:]),
	})
}

func (s *Server) handleGetEntries(w http.ResponseWriter, r *http.Request) {
	mReqGetEntries.Inc()
	start, err1 := strconv.ParseUint(r.URL.Query().Get("start"), 10, 64)
	end, err2 := strconv.ParseUint(r.URL.Query().Get("end"), 10, 64)
	if err1 != nil || err2 != nil {
		writeErr(w, http.StatusBadRequest, errors.New("start and end must be integers"))
		return
	}
	if end >= start && end-start+1 > MaxEntriesPerGet {
		end = start + MaxEntriesPerGet - 1
	}
	leaves, err := s.log.leafInputs(start, end)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	mEntriesServed.Add(uint64(len(leaves)))
	body := entriesJSON(leaves)
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}

// The fixed bytes of a get-entries body. entriesJSON writes them and
// decodeEntries (client.go) scans for exactly them.
const (
	entriesOpen  = `{"entries":[`
	entryOpen    = `{"leaf_input":"`
	entryClose   = `"}`
	entriesClose = `]}`
)

// entriesJSON is the get-entries body for leaves: byte for byte what
// json.Encoder makes of a getEntriesResponse (base64 needs no escaping),
// built in one allocation.
func entriesJSON(leaves [][]byte) []byte {
	size := len(entriesOpen) + len(entriesClose) + 1
	for _, leaf := range leaves {
		size += len(entryOpen) + base64.StdEncoding.EncodedLen(len(leaf)) + len(entryClose) + 1
	}
	b := make([]byte, 0, size)
	b = append(b, entriesOpen...)
	for i, leaf := range leaves {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, entryOpen...)
		b = base64.StdEncoding.AppendEncode(b, leaf)
		b = append(b, entryClose...)
	}
	return append(append(b, entriesClose...), '\n')
}

func (s *Server) handleProofByHash(w http.ResponseWriter, r *http.Request) {
	mReqProof.Inc()
	rawHash, err := base64.StdEncoding.DecodeString(r.URL.Query().Get("hash"))
	if err != nil || len(rawHash) != 32 {
		writeErr(w, http.StatusBadRequest, errors.New("hash must be base64 of 32 bytes"))
		return
	}
	size, err := strconv.ParseUint(r.URL.Query().Get("tree_size"), 10, 64)
	if err != nil {
		writeErr(w, http.StatusBadRequest, errors.New("tree_size must be an integer"))
		return
	}
	var leaf merkle.Hash
	copy(leaf[:], rawHash)
	idx, proof, err := s.log.InclusionProof(leaf, size)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrNotFound) {
			status = http.StatusNotFound
		}
		writeErr(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, getProofByHashResponse{LeafIndex: idx, AuditPath: encodeHashes(proof)})
}

func (s *Server) handleConsistency(w http.ResponseWriter, r *http.Request) {
	mReqConsist.Inc()
	first, err1 := strconv.ParseUint(r.URL.Query().Get("first"), 10, 64)
	second, err2 := strconv.ParseUint(r.URL.Query().Get("second"), 10, 64)
	if err1 != nil || err2 != nil {
		writeErr(w, http.StatusBadRequest, errors.New("first and second must be integers"))
		return
	}
	proof, err := s.log.ConsistencyProof(first, second)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, http.StatusOK, getConsistencyResponse{Consistency: encodeHashes(proof)})
}

func encodeHashes(hs []merkle.Hash) []string {
	out := make([]string, len(hs))
	for i, h := range hs {
		out[i] = base64.StdEncoding.EncodeToString(h[:])
	}
	return out
}

func decodeHashes(ss []string) ([]merkle.Hash, error) {
	out := make([]merkle.Hash, len(ss))
	for i, s := range ss {
		raw, err := base64.StdEncoding.DecodeString(s)
		if err != nil || len(raw) != 32 {
			return nil, fmt.Errorf("ctlog: bad hash at %d", i)
		}
		copy(out[i][:], raw)
	}
	return out, nil
}
