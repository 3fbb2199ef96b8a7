package whois

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
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
// closes the connection.
type Server struct {
	source Source

	mu       sync.Mutex
	listener net.Listener
	closed   bool
	wg       sync.WaitGroup
}

// NewServer creates a server over a source.
func NewServer(source Source) *Server {
	return &Server{source: source}
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

// Close stops the listener and waits for in-flight connections.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	ln := s.listener
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

func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	line, err := bufio.NewReader(io.LimitReader(conn, 1024)).ReadString('\n')
	if err != nil && line == "" {
		return
	}
	query := dnsname.Canonical(strings.TrimSpace(line))
	if query == "" || dnsname.Check(query, false) != nil {
		mQueryInvalid.Inc()
		_, _ = io.WriteString(conn, "Invalid query.\n")
		return
	}
	rec, ok := s.source.WhoisLookup(query)
	if !ok {
		mQueryNoMatch.Inc()
		_, _ = io.WriteString(conn, NotFoundResponse)
		return
	}
	mQueryOK.Inc()
	_, _ = io.WriteString(conn, rec.Format())
}

// ErrNoMatch is returned by Query for unregistered domains.
var ErrNoMatch = errors.New("whois: no match for domain")

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
	if dl, ok := ctx.Deadline(); ok {
		_ = conn.SetDeadline(dl)
	} else {
		_ = conn.SetDeadline(time.Now().Add(10 * time.Second))
	}
	if _, err := fmt.Fprintf(conn, "%s\r\n", domain); err != nil {
		return Record{}, err
	}
	raw, err := io.ReadAll(io.LimitReader(conn, 64<<10))
	if err != nil {
		return Record{}, err
	}
	body := string(raw)
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
