package dnssim

import (
	"bytes"
	"context"
	"errors"
	"net"
	"sync/atomic"
	"testing"
	"time"
)

// scriptedServer answers each datagram with whatever reply builds from the
// decoded query and the number of queries seen before it.
func scriptedServer(t *testing.T, reply func(n int, req *Message) []byte) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pc.Close() })
	go func() {
		buf := make([]byte, 4096)
		for n := 0; ; n++ {
			size, from, err := pc.ReadFrom(buf)
			if err != nil {
				return
			}
			req, err := Unmarshal(buf[:size])
			if err != nil {
				continue
			}
			_, _ = pc.WriteTo(reply(n, req), from)
		}
	}()
	return pc.LocalAddr().String()
}

func mustMarshal(t *testing.T, m *Message) []byte {
	t.Helper()
	raw, err := m.Marshal()
	if err != nil {
		t.Error(err)
	}
	return raw
}

// TestResolverRejectsRepliesThatAreNotAnswers: a datagram that carries the
// query's ID but is not a response, or answers another question, must fail the
// attempt like an ID mismatch does — read as an answer, a foreign NS record
// would pass for "still delegated" and hide a departure.
func TestResolverRejectsRepliesThatAreNotAnswers(t *testing.T) {
	foreign := Question{Name: "other.net", Type: TypeNS, Class: ClassIN}
	foreignNS := []Record{{Name: "other.net", Type: TypeNS, TTL: 60, Data: "amy.ns.cloudflare.com"}}
	ownNS := func(req *Message) []Record {
		return []Record{{Name: req.Questions[0].Name, Type: TypeNS, TTL: 60, Data: "amy.ns.cloudflare.com"}}
	}
	cases := []struct {
		name  string
		reply func(req *Message) *Message
		want  error // nil: accepted with one answer
	}{
		{"query bit clear, another question", func(req *Message) *Message {
			return &Message{Header: Header{ID: req.ID}, Questions: []Question{foreign}, Answers: foreignNS}
		}, ErrNotAnswer},
		{"query bit clear, own question", func(req *Message) *Message {
			return &Message{Header: Header{ID: req.ID}, Questions: req.Questions, Answers: ownNS(req)}
		}, ErrNotAnswer},
		{"another name", func(req *Message) *Message {
			return &Message{Header: Header{ID: req.ID, Response: true}, Questions: []Question{foreign}, Answers: foreignNS}
		}, ErrNotAnswer},
		{"another type", func(req *Message) *Message {
			q := req.Questions[0]
			q.Type = TypeCNAME
			return &Message{Header: Header{ID: req.ID, Response: true}, Questions: []Question{q}, Answers: ownNS(req)}
		}, ErrNotAnswer},
		{"another class", func(req *Message) *Message {
			q := req.Questions[0]
			q.Class = 3
			return &Message{Header: Header{ID: req.ID, Response: true}, Questions: []Question{q}, Answers: ownNS(req)}
		}, ErrNotAnswer},
		{"no question, NOERROR", func(req *Message) *Message {
			return &Message{Header: Header{ID: req.ID, Response: true}, Answers: ownNS(req)}
		}, ErrNotAnswer},
		{"no question, NXDOMAIN", func(req *Message) *Message {
			return &Message{Header: Header{ID: req.ID, Response: true, RCode: RCodeNXDomain}}
		}, ErrNotAnswer},
		{"two questions", func(req *Message) *Message {
			return &Message{Header: Header{ID: req.ID, Response: true}, Questions: []Question{req.Questions[0], foreign}, Answers: ownNS(req)}
		}, ErrNotAnswer},
		{"no question, FORMERR", func(req *Message) *Message {
			return &Message{Header: Header{ID: req.ID, Response: true, RCode: RCodeFormErr}}
		}, ErrServFailed},
		{"own question", func(req *Message) *Message {
			return &Message{Header: Header{ID: req.ID, Response: true}, Questions: req.Questions, Answers: ownNS(req)}
		}, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var asked atomic.Int32
			addr := scriptedServer(t, func(_ int, req *Message) []byte {
				asked.Add(1)
				return mustMarshal(t, tc.reply(req))
			})
			r := &Resolver{ServerAddr: addr, Timeout: time.Second, Retries: 1}
			recs, err := r.Query(context.Background(), "asked.com", TypeNS)
			if tc.want == nil {
				if err != nil || len(recs) != 1 {
					t.Fatalf("Query = %v, %v, want the one answer", recs, err)
				}
				return
			}
			if !errors.Is(err, tc.want) || recs != nil {
				t.Fatalf("Query = %v, %v, want %v", recs, err, tc.want)
			}
			if n := asked.Load(); n != 2 {
				t.Fatalf("server asked %d times, want the attempt retried once", n)
			}
		})
	}
}

// TestResolverAcceptsQuestionEchoedInAnotherCase: servers may echo the name
// as they store it; and a spoofed first reply costs one attempt, not the query.
func TestResolverAcceptsQuestionEchoedInAnotherCase(t *testing.T) {
	addr := scriptedServer(t, func(n int, req *Message) []byte {
		resp := &Message{Header: Header{ID: req.ID, Response: true}, Questions: req.Questions,
			Answers: []Record{{Name: "asked.com", Type: TypeNS, TTL: 60, Data: "amy.ns.cloudflare.com"}}}
		if n == 0 {
			resp.Questions = []Question{{Name: "other.net", Type: TypeNS, Class: ClassIN}}
			return mustMarshal(t, resp)
		}
		// Marshal lower-cases names; put the echo in upper case on the wire.
		return bytes.Replace(mustMarshal(t, resp), []byte("asked"), []byte("ASKED"), 1)
	})
	r := &Resolver{ServerAddr: addr, Timeout: time.Second}
	recs, err := r.Query(context.Background(), "asked.com.", TypeNS)
	if err != nil || len(recs) != 1 {
		t.Fatalf("Query = %v, %v, want the retried attempt's answer", recs, err)
	}
}
