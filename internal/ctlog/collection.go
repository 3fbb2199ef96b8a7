package ctlog

import (
	"fmt"
	"sort"
	"time"

	"stalecert/internal/simtime"
	"stalecert/internal/x509sim"
)

// Collection aggregates multiple CT logs, mirroring the paper's corpus of
// 117 logs trusted by Chrome or Apple. It handles shard routing on
// submission and cross-log deduplication on read.
type Collection struct {
	logs []*Log
}

// NewCollection builds a collection over the given logs.
func NewCollection(logs ...*Log) *Collection {
	return &Collection{logs: logs}
}

// ShardedLogs creates one log per calendar year in [firstYear, lastYear],
// named like production temporal shards ("<operator>2021"), plus optionally
// an unsharded catch-all when includeUnsharded is set.
func ShardedLogs(operator string, firstYear, lastYear int, includeUnsharded bool) []*Log {
	var logs []*Log
	for y := firstYear; y <= lastYear; y++ {
		shard := Shard{
			Start: simtime.FromDate(y, time.January, 1),
			End:   simtime.FromDate(y+1, time.January, 1),
		}
		logs = append(logs, New(fmt.Sprintf("%s%d", operator, y), shard))
	}
	if includeUnsharded {
		logs = append(logs, New(operator+"-all", Shard{}))
	}
	return logs
}

// Logs returns the member logs.
func (c *Collection) Logs() []*Log { return c.logs }

// Submit sends a certificate to every member log whose shard accepts it,
// returning the SCTs collected. CAs must obtain SCTs from multiple logs;
// the simulator submits everywhere eligible, which also exercises the
// cross-log deduplication path.
func (c *Collection) Submit(cert *x509sim.Certificate, now simtime.Day) []SCT {
	var scts []SCT
	for _, l := range c.logs {
		if !l.Shard().Accepts(cert.NotAfter) {
			continue // route by shard without paying for a rejection error
		}
		sct, err := l.AddChain(cert, now)
		if err != nil {
			continue // racing shard change; expected
		}
		scts = append(scts, sct)
	}
	return scts
}

// DedupStats reports what deduplication removed, for Table 3 accounting.
type DedupStats struct {
	RawEntries    int // entries across all logs before dedup
	Unique        int // distinct certificates after dedup
	PrecertMerged int // precert+final pairs merged
	CrossLog      int // duplicates removed because of multi-log submission
}

// Dedup collects every entry from every log and deduplicates by the
// certificate fingerprint over non-CT components, so a precertificate and
// its final certificate — and the same certificate in several logs — count
// once, exactly as the paper's 5B-entry corpus was reduced. Final
// certificates are preferred over precerts; the earliest timestamp wins.
func (c *Collection) Dedup() ([]*x509sim.Certificate, DedupStats) {
	type slot struct {
		cert    *x509sim.Certificate
		ts      simtime.Day
		precert bool
		count   int
	}
	seen := make(map[x509sim.Fingerprint]*slot)
	stats := DedupStats{}
	var order []x509sim.Fingerprint
	for _, l := range c.logs {
		size := l.Size()
		if size == 0 {
			continue
		}
		entries, err := l.Entries(0, size-1)
		if err != nil {
			continue
		}
		for _, e := range entries {
			stats.RawEntries++
			fp := e.Cert.Fingerprint()
			s, ok := seen[fp]
			if !ok {
				seen[fp] = &slot{cert: e.Cert, ts: e.Timestamp, precert: e.Cert.Precert, count: 1}
				order = append(order, fp)
				continue
			}
			s.count++
			if s.precert != e.Cert.Precert {
				// Precert/final pair: prefer the final certificate body.
				stats.PrecertMerged++
				if s.precert {
					s.cert = e.Cert
					s.precert = false
				}
			} else {
				stats.CrossLog++
			}
			if e.Timestamp < s.ts {
				s.ts = e.Timestamp
			}
		}
	}
	out := make([]*x509sim.Certificate, 0, len(order))
	for _, fp := range order {
		out = append(out, seen[fp].cert)
	}
	stats.Unique = len(out)
	// Deterministic output order: by (notBefore, issuer, serial).
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.NotBefore != b.NotBefore {
			return a.NotBefore < b.NotBefore
		}
		if a.Issuer != b.Issuer {
			return a.Issuer < b.Issuer
		}
		return a.Serial < b.Serial
	})
	return out, stats
}
