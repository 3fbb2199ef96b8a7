package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math/rand/v2"
)

// TraceHeader is the HTTP header carrying the request ID between services,
// in the W3C Trace Context "traceparent" layout:
//
//	00-<32 hex trace id>-<16 hex span id>-01
//
// The trace ID is the correlation key: every hop of one logical operation
// (scrape -> get-sth -> get-entries) logs the same trace, while each hop
// mints its own span ID. The name is spelled in net/http's canonical form, so
// reading or setting it canonicalises nothing.
const TraceHeader = "Traceparent"

// RequestID identifies one logical request across service boundaries.
type RequestID struct {
	TraceID [16]byte
	SpanID  [8]byte
}

// NewRequestID mints a random request ID. IDs are correlation keys, not
// secrets: they come from math/rand/v2's OS-seeded per-thread ChaCha8
// generator, which costs no system call and no lock.
func NewRequestID() RequestID {
	var id RequestID
	binary.LittleEndian.PutUint64(id.TraceID[:8], randNonZero())
	binary.LittleEndian.PutUint64(id.TraceID[8:], rand.Uint64())
	return id.Child()
}

// randNonZero draws until non-zero: an all-zero trace or span ID means
// "unset" in the traceparent format.
func randNonZero() uint64 {
	for {
		if x := rand.Uint64(); x != 0 {
			return x
		}
	}
}

// IsZero reports whether the ID is unset.
func (id RequestID) IsZero() bool { return id.TraceID == [16]byte{} }

// String renders the traceparent header value.
func (id RequestID) String() string {
	b := make([]byte, 0, 55)
	b = append(b, "00-"...)
	b = hex.AppendEncode(b, id.TraceID[:])
	b = append(b, '-')
	b = hex.AppendEncode(b, id.SpanID[:])
	b = append(b, "-01"...)
	return string(b)
}

// Trace returns the hex trace ID — the value access logs record.
func (id RequestID) Trace() string { return hex.EncodeToString(id.TraceID[:]) }

// Span returns the hex span ID — the form span records store and link by.
func (id RequestID) Span() string { return hex.EncodeToString(id.SpanID[:]) }

// Child returns the ID with a fresh span ID, for an outgoing hop that stays
// inside the same trace.
func (id RequestID) Child() RequestID {
	binary.LittleEndian.PutUint64(id.SpanID[:], randNonZero())
	return id
}

// ParseTraceparent decodes a traceparent header value. It accepts any
// two-hex-digit version and requires a non-zero trace ID.
func ParseTraceparent(h string) (RequestID, bool) {
	var id RequestID
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return id, false
	}
	if !isHex(h[:2]) || !isHex(h[53:55]) {
		return id, false
	}
	if _, err := hex.Decode(id.TraceID[:], []byte(h[3:35])); err != nil {
		return RequestID{}, false
	}
	if _, err := hex.Decode(id.SpanID[:], []byte(h[36:52])); err != nil {
		return RequestID{}, false
	}
	if id.IsZero() {
		return RequestID{}, false
	}
	return id, true
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F') {
			return false
		}
	}
	return true
}

type requestIDKey struct{}

// requestIDContext is context.WithValue for a request ID in one allocation:
// Value hands out a pointer to the ID it holds instead of boxing a copy.
type requestIDContext struct {
	context.Context
	id RequestID
}

func (c *requestIDContext) Value(key any) any {
	if key == (requestIDKey{}) {
		return &c.id
	}
	return c.Context.Value(key)
}

// ContextWithRequestID returns ctx carrying the request ID.
func ContextWithRequestID(ctx context.Context, id RequestID) context.Context {
	return &requestIDContext{ctx, id}
}

// RequestIDFromContext extracts the request ID placed by Middleware or
// ContextWithRequestID; ok is false when none is set.
func RequestIDFromContext(ctx context.Context) (RequestID, bool) {
	if id, ok := ctx.Value(requestIDKey{}).(*RequestID); ok {
		return *id, true
	}
	return RequestID{}, false
}
