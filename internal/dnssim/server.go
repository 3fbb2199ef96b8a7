package dnssim

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"stalecert/internal/dnsname"
	"stalecert/internal/obs"
)

// UDP server metrics, labelled by response code.
var (
	mQueriesMalformed = obs.Default().Counter("dns_queries_total", "rcode", "malformed")
	mRespTruncated    = obs.Default().Counter("dns_responses_truncated_total")
)

func queryCounter(rcode RCode) *obs.Counter {
	return obs.Default().Counter("dns_queries_total", "rcode", rcode.String())
}

// Store holds the authoritative zones a server answers from. It is safe for
// concurrent use: the world simulator mutates delegations while the scanner
// reads.
type Store struct {
	mu    sync.RWMutex
	zones map[string]*Zone // apex -> zone
}

// NewStore creates an empty store.
func NewStore() *Store {
	return &Store{zones: make(map[string]*Zone)}
}

// AddZone registers (or replaces) a zone.
func (s *Store) AddZone(z *Zone) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zones[z.Apex] = z
}

// Zone returns the zone with the given apex, or nil.
func (s *Store) Zone(apex string) *Zone {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.zones[dnsname.Canonical(apex)]
}

// findZone returns the zone with the longest apex that is a suffix of name.
func (s *Store) findZone(name string) *Zone {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for n := name; n != ""; n = dnsname.Parent(n) {
		if z, ok := s.zones[n]; ok {
			return z
		}
	}
	return nil
}

// Mutate runs fn with the store's write lock held, for atomic multi-record
// updates (e.g. a CDN migration swapping NS records).
func (s *Store) Mutate(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
}

// Resolve answers a question from the store, implementing authoritative
// semantics with in-zone CNAME chasing. The boolean reports whether this
// store is authoritative for the name at all.
func (s *Store) Resolve(q Question) (answers []Record, rcode RCode, authoritative bool) {
	name := dnsname.Canonical(q.Name)
	z := s.findZone(name)
	if z == nil {
		return nil, RCodeRefused, false
	}
	const maxChase = 8
	cur := name
	for hop := 0; hop < maxChase; hop++ {
		s.mu.RLock()
		direct := z.Lookup(cur, q.Type)
		cname := z.Lookup(cur, TypeCNAME)
		exists := len(direct) > 0 || len(cname) > 0 || zoneHasName(z, cur)
		s.mu.RUnlock()

		if len(direct) > 0 {
			return append(answers, direct...), RCodeNoError, true
		}
		if q.Type != TypeCNAME && len(cname) > 0 {
			answers = append(answers, cname...)
			target := cname[0].Data
			if next := s.findZone(target); next != nil {
				z = next
				cur = target
				continue
			}
			// Target outside our authority: return the CNAME chain.
			return answers, RCodeNoError, true
		}
		if exists {
			return answers, RCodeNoError, true // NODATA
		}
		if len(answers) > 0 {
			return answers, RCodeNoError, true // chain ended at a dangling target
		}
		return nil, RCodeNXDomain, true
	}
	return answers, RCodeServFail, true
}

func zoneHasName(z *Zone, name string) bool {
	for _, t := range []RRType{TypeA, TypeAAAA, TypeNS, TypeTXT, TypeSOA, TypeCNAME} {
		if len(z.Lookup(name, t)) > 0 {
			return true
		}
	}
	return false
}

// Server is an authoritative DNS server over UDP. Create with NewServer,
// start with Start, stop with Close.
type Server struct {
	store *Store

	mu     sync.Mutex
	conn   net.PacketConn
	closed bool
	wg     sync.WaitGroup
}

// NewServer wraps a store.
func NewServer(store *Store) *Server {
	return &Server{store: store}
}

// Start begins serving on addr ("127.0.0.1:0" for an ephemeral port) and
// returns the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	conn, err := net.ListenPacket("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("dnssim: listen: %w", err)
	}
	s.mu.Lock()
	s.conn = conn
	s.mu.Unlock()
	s.wg.Add(1)
	go s.loop(conn)
	return conn.LocalAddr(), nil
}

// Close stops the server and waits for the serve loop to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	conn := s.conn
	s.mu.Unlock()
	var err error
	if conn != nil {
		err = conn.Close()
	}
	s.wg.Wait()
	return err
}

// Shutdown stops the server like Close but bounds the wait for the serve
// loop by ctx, mirroring the graceful drain the HTTP daemons get from
// net/http.Server.Shutdown.
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

func (s *Server) loop(conn net.PacketConn) {
	defer s.wg.Done()
	buf := make([]byte, 4096)
	for {
		n, from, err := conn.ReadFrom(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		resp := s.handle(buf[:n])
		if resp != nil {
			_, _ = conn.WriteTo(resp, from)
		}
	}
}

// handle produces the wire response for one wire query (nil to drop).
func (s *Server) handle(raw []byte) []byte {
	req, err := Unmarshal(raw)
	if err != nil || req.Response || len(req.Questions) != 1 {
		mQueriesMalformed.Inc()
		// Malformed or not a simple query: answer FORMERR when we can echo
		// an ID, otherwise drop.
		if err != nil && len(raw) >= 2 {
			m := &Message{Header: Header{Response: true, RCode: RCodeFormErr}}
			m.ID = uint16(raw[0])<<8 | uint16(raw[1])
			out, _ := m.Marshal()
			return out
		}
		return nil
	}
	q := req.Questions[0]
	resp := &Message{
		Header: Header{
			ID:               req.ID,
			Response:         true,
			Opcode:           req.Opcode,
			RecursionDesired: req.RecursionDesired,
		},
		Questions: []Question{q},
	}
	if req.Opcode != 0 {
		resp.RCode = RCodeNotImp
	} else if q.Class != ClassIN {
		resp.RCode = RCodeRefused
	} else {
		answers, rcode, auth := s.store.Resolve(q)
		resp.Answers = answers
		resp.RCode = rcode
		resp.Authoritative = auth
	}
	queryCounter(resp.RCode).Inc()
	out, err := resp.Marshal()
	if err != nil {
		resp = &Message{Header: Header{ID: req.ID, Response: true, RCode: RCodeServFail}, Questions: []Question{q}}
		out, _ = resp.Marshal()
		return out
	}
	if len(out) > MaxUDPPayload {
		// Truncate: drop answers and set TC, as RFC 1035 servers do.
		mRespTruncated.Inc()
		resp.Answers = nil
		resp.Truncated = true
		out, _ = resp.Marshal()
	}
	return out
}
