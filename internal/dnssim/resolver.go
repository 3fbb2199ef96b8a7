package dnssim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strings"
	"sync"
	"time"

	"stalecert/internal/dnsname"
)

// Resolver queries an authoritative server over UDP with timeouts, retries
// and ID validation — the scanning client behind the daily aDNS collection.
type Resolver struct {
	// ServerAddr is the UDP address of the authoritative server.
	ServerAddr string
	// Timeout per attempt (default 2s).
	Timeout time.Duration
	// Retries is the number of additional attempts (default 2).
	Retries int

	mu  sync.Mutex
	rng *rand.Rand
}

// Resolver errors.
var (
	ErrIDMismatch = errors.New("dnssim: response ID mismatch")
	ErrNotAnswer  = errors.New("dnssim: reply is not a response to the question asked")
	ErrTruncatedR = errors.New("dnssim: response truncated (TC set)")
	ErrServFailed = errors.New("dnssim: server failure")
)

// NXDomainError marks a name that does not exist.
type NXDomainError struct{ Name string }

func (e *NXDomainError) Error() string { return fmt.Sprintf("dnssim: NXDOMAIN for %q", e.Name) }

// Query sends one question and returns the answer records. NODATA yields an
// empty slice and nil error; NXDOMAIN yields *NXDomainError.
func (r *Resolver) Query(ctx context.Context, name string, t RRType) ([]Record, error) {
	timeout := r.Timeout
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	attempts := r.Retries + 1
	if r.Retries == 0 {
		attempts = 3
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		recs, err := r.queryOnce(ctx, name, t, timeout)
		if err == nil {
			return recs, nil
		}
		var nx *NXDomainError
		if errors.As(err, &nx) {
			return nil, err // authoritative negative answer: don't retry
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

func (r *Resolver) queryOnce(ctx context.Context, name string, t RRType, timeout time.Duration) ([]Record, error) {
	r.mu.Lock()
	if r.rng == nil {
		r.rng = rand.New(rand.NewSource(time.Now().UnixNano()))
	}
	id := uint16(r.rng.Intn(1 << 16))
	r.mu.Unlock()

	q := &Message{
		Header:    Header{ID: id, RecursionDesired: true},
		Questions: []Question{{Name: name, Type: t, Class: ClassIN}},
	}
	raw, err := q.Marshal()
	if err != nil {
		return nil, err
	}

	var d net.Dialer
	conn, err := d.DialContext(ctx, "udp", r.ServerAddr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	deadline := time.Now().Add(timeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	_ = conn.SetDeadline(deadline)
	if _, err := conn.Write(raw); err != nil {
		return nil, err
	}
	buf := make([]byte, 4096)
	n, err := conn.Read(buf)
	if err != nil {
		return nil, err
	}
	resp, err := Unmarshal(buf[:n])
	if err != nil {
		return nil, err
	}
	// Before its RCODE or answers mean anything a reply must be a response to
	// this question, not merely carry its ID.
	switch {
	case resp.ID != id:
		return nil, ErrIDMismatch
	case !resp.Response:
		return nil, ErrNotAnswer
	case len(resp.Questions) == 0 && resp.RCode != RCodeNoError && resp.RCode != RCodeNXDomain:
		// A server that could not parse the query (its own FORMERR) has no
		// question to echo: a server failure, below.
	case len(resp.Questions) != 1 || !resp.Questions[0].echoes(q.Questions[0]):
		return nil, ErrNotAnswer
	}
	if resp.Truncated {
		return nil, ErrTruncatedR
	}
	switch resp.RCode {
	case RCodeNoError:
		return resp.Answers, nil
	case RCodeNXDomain:
		return nil, &NXDomainError{Name: name}
	default:
		return nil, fmt.Errorf("%w: %v", ErrServFailed, resp.RCode)
	}
}

// echoes reports whether a reply's question is the one asked: same type and
// class, same name up to case and a trailing dot.
func (q Question) echoes(asked Question) bool {
	return q.Type == asked.Type && q.Class == asked.Class &&
		strings.EqualFold(q.Name, dnsname.Canonical(asked.Name))
}
