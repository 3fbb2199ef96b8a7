package whois

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"stalecert/internal/dnsname"
	"stalecert/internal/obs"
)

// Port-43 server metrics, labelled by query outcome.
var (
	mQueryOK      = obs.Default().Counter("whois_queries_total", "outcome", "ok")
	mQueryNoMatch = obs.Default().Counter("whois_queries_total", "outcome", "no_match")
	mQueryInvalid = obs.Default().Counter("whois_queries_total", "outcome", "invalid")
)

// Server answers WHOIS queries over TCP in the port-43 style: the client
// sends one domain name terminated by CRLF, the server writes the record and
// closes the connection. A query prefixed "-k " (RIPE's persistent mode) is
// answered with one empty line after the answer, which no answer contains,
// and the connection stays open for the next query.
type Server struct {
	source  Source
	timeout time.Duration // to read, look up and answer one query

	mu       sync.Mutex
	listener net.Listener
	closed   bool
	kept     map[net.Conn]bool // connections that asked with -k
	wg       sync.WaitGroup
}

// NewServer creates a server over a source.
func NewServer(source Source) *Server {
	return &Server{source: source, timeout: 10 * time.Second, kept: map[net.Conn]bool{}}
}

// Start listens on addr ("127.0.0.1:0" for ephemeral) and serves until Close.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("whois: listen: %w", err)
	}
	s.mu.Lock()
	s.listener = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Addr(), nil
}

// Close stops the listener and waits for in-flight queries. A kept
// connection waiting for its next query is cut, not waited out.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.listener
	for conn := range s.kept {
		_ = conn.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// Shutdown closes the listener and waits for in-flight connections like
// Close, but gives up waiting (the listener stays closed) when ctx expires —
// the net/http-style graceful drain for the port-43 surface.
func (s *Server) Shutdown(ctx context.Context) error {
	done := make(chan error, 1)
	go func() { done <- s.Close() }()
	select {
	case err := <-done:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// serveConn answers one plain query, or -k queries until the client hangs up
// or waits past the deadline; a query is one line of at most 1 024 bytes.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.kept, conn)
		s.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReaderSize(conn, 1024)
	for kept := false; s.await(conn, kept); {
		line, err := r.ReadSlice('\n')
		if err != nil && len(line) == 0 {
			return
		}
		query, prefixed := strings.CutPrefix(string(line), "-k ")
		kept = prefixed && err == nil
		answer := s.answer(query)
		if kept {
			answer += "\n"
		}
		if _, err := io.WriteString(conn, answer); err != nil || !kept {
			return
		}
	}
}

// await arms conn's deadline for its next query. Once conn has asked with -k,
// Close cuts its wait for the next one; await reports false once it has.
func (s *Server) await(conn net.Conn, kept bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if kept {
		if s.closed {
			return false
		}
		s.kept[conn] = true
	}
	return conn.SetDeadline(time.Now().Add(s.timeout)) == nil
}

func (s *Server) answer(query string) string {
	query = dnsname.Canonical(strings.TrimSpace(query))
	if query == "" || dnsname.Check(query, false) != nil {
		mQueryInvalid.Inc()
		return "Invalid query.\n"
	}
	rec, ok := s.source.WhoisLookup(query)
	if !ok {
		mQueryNoMatch.Inc()
		return NotFoundResponse
	}
	mQueryOK.Inc()
	return rec.Format()
}

// ErrNoMatch is returned by Query for unregistered domains.
var ErrNoMatch = errors.New("whois: no match for domain")

const (
	maxAnswer = 64 << 10 // bytes of one answer a client buffers
	maxIdle   = 8        // connections a Client keeps open between queries
)

// Query performs one WHOIS lookup against addr and parses the response. A
// record for any other domain than the one asked is an error: its dates must
// not be read as the queried domain's.
func Query(ctx context.Context, addr, domain string) (Record, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return Record{}, err
	}
	defer conn.Close()
	_ = conn.SetDeadline(deadline(ctx))
	if _, err := fmt.Fprintf(conn, "%s\r\n", domain); err != nil {
		return Record{}, err
	}
	raw, err := io.ReadAll(io.LimitReader(conn, maxAnswer))
	if err != nil {
		return Record{}, err
	}
	return decode(string(raw), domain)
}

// Client queries one WHOIS server over connections it keeps open between
// queries with -k, at most maxIdle of them idle at once. The zero value with
// Addr set is ready for use by any number of goroutines.
type Client struct {
	Addr string

	mu   sync.Mutex
	idle []*keptConn
}

type keptConn struct {
	net.Conn
	r *bufio.Reader
}

// Query is the package-level Query over a kept connection, with every one of
// its checks. A connection returns to the idle set only after a complete,
// well-framed answer. A reused connection that fails before yielding a byte
// (the server hung up while it sat idle) is replaced by one fresh dial; any
// other failure is returned as is.
func (c *Client) Query(ctx context.Context, domain string) (Record, error) {
	var kc *keptConn
	c.mu.Lock()
	if n := len(c.idle); n > 0 {
		kc, c.idle = c.idle[n-1], c.idle[:n-1]
	}
	c.mu.Unlock()
	for reused := kc != nil; ; reused = false {
		if kc == nil {
			var d net.Dialer
			conn, err := d.DialContext(ctx, "tcp", c.Addr)
			if err != nil {
				return Record{}, err
			}
			kc = &keptConn{conn, bufio.NewReader(conn)}
		}
		rec, got, err := kc.ask(ctx, domain)
		if err == nil || errors.Is(err, ErrNoMatch) {
			c.mu.Lock()
			if len(c.idle) < maxIdle {
				c.idle, kc = append(c.idle, kc), nil
			}
			c.mu.Unlock()
		}
		if kc != nil {
			kc.Close()
		}
		if !reused || got || errors.Is(err, os.ErrDeadlineExceeded) {
			return rec, err
		}
		kc = nil
	}
}

// ask sends a -k query for domain and decodes the answer, the lines up to the
// first empty one; got reports whether any byte of it arrived. Bytes already
// waiting after the empty line mean the stream is out of step: an error.
func (kc *keptConn) ask(ctx context.Context, domain string) (rec Record, got bool, err error) {
	_ = kc.SetDeadline(deadline(ctx))
	if _, err := fmt.Fprintf(kc, "-k %s\r\n", domain); err != nil {
		return Record{}, false, err
	}
	var b []byte
	for !bytes.HasSuffix(b, []byte("\n\n")) && string(b) != "\n" {
		line, err := kc.r.ReadSlice('\n')
		if len(b)+len(line) > maxAnswer {
			return Record{}, true, fmt.Errorf("whois: answer to %q over %d bytes", domain, maxAnswer)
		}
		b = append(b, line...)
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		if err != nil && err != bufio.ErrBufferFull {
			return Record{}, len(b) > 0, err
		}
	}
	if kc.r.Buffered() > 0 {
		return Record{}, true, fmt.Errorf("whois: bytes after the answer to %q", domain)
	}
	rec, err = decode(string(b[:len(b)-1]), domain)
	return rec, true, err
}

// deadline is ctx's, or 10 s from now when it has none.
func deadline(ctx context.Context) time.Time {
	if dl, ok := ctx.Deadline(); ok {
		return dl
	}
	return time.Now().Add(10 * time.Second)
}

// decode reads one answer to a query for domain, refusing a record for
// another domain: on a kept connection, also an answer out of step.
func decode(body, domain string) (Record, error) {
	if strings.HasPrefix(body, "No match") {
		return Record{}, ErrNoMatch
	}
	if strings.HasPrefix(body, "Invalid") {
		return Record{}, fmt.Errorf("whois: server rejected query %q", domain)
	}
	rec, err := Parse(body)
	if err == nil && rec.Domain != dnsname.Canonical(domain) {
		return Record{}, fmt.Errorf("whois: asked for %q, server answered for %q", domain, rec.Domain)
	}
	return rec, err
}
