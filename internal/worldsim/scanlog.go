package worldsim

import (
	"sort"

	"stalecert/internal/dnssim"
	"stalecert/internal/monitor"
	"stalecert/internal/simtime"
)

// ScanLog is the compact daily active-DNS record: per day, the sorted set of
// domains whose DNS currently delegates to the managed-TLS provider, plus
// record-type counts for dataset accounting (Table 3). A domain counts as
// delegated when its apex NS or www CNAME is a monitor.IsCloudflareRecord,
// the predicate the live evidence gatherer asks over the wire.
type ScanLog struct {
	days    []simtime.Day
	matched [][]string // sorted provider-delegated domains per day
	counts  map[dnssim.RRType]int
}

// NewScanLog creates an empty log.
func NewScanLog() *ScanLog {
	return &ScanLog{counts: make(map[dnssim.RRType]int)}
}

// Scan records one day's scan over every domain the world has seen.
func (l *ScanLog) Scan(day simtime.Day, w *World) {
	var matched []string
	for name := range w.domains {
		zone := w.zoneFor(name)
		if zone == nil {
			continue
		}
		isCDN := false
		ns := zone.Lookup(name, dnssim.TypeNS)
		for _, r := range ns {
			if monitor.IsCloudflareRecord(r) {
				isCDN = true
			}
		}
		cname := zone.Lookup("www."+name, dnssim.TypeCNAME)
		for _, r := range cname {
			if monitor.IsCloudflareRecord(r) {
				isCDN = true
			}
		}
		l.counts[dnssim.TypeNS] += len(ns)
		l.counts[dnssim.TypeCNAME] += len(cname)
		l.counts[dnssim.TypeA] += len(zone.Lookup(name, dnssim.TypeA))
		l.counts[dnssim.TypeAAAA] += len(zone.Lookup(name, dnssim.TypeAAAA))
		if isCDN {
			matched = append(matched, name)
		}
	}
	sort.Strings(matched)
	l.days = append(l.days, day)
	l.matched = append(l.matched, matched)
}

// Days returns the scan days.
func (l *ScanLog) Days() []simtime.Day { return l.days }

// MatchedOn returns the provider-delegated domains on the i-th scan day.
func (l *ScanLog) MatchedOn(i int) []string { return l.matched[i] }

// AvgRecordsPerDay returns the mean per-day record count by type.
func (l *ScanLog) AvgRecordsPerDay() map[dnssim.RRType]float64 {
	out := make(map[dnssim.RRType]float64, len(l.counts))
	if len(l.days) == 0 {
		return out
	}
	for t, n := range l.counts {
		out[t] = float64(n) / float64(len(l.days))
	}
	return out
}

// Departures lists domains that were provider-delegated on one scan day and
// not on the next — the paper's managed-TLS departure signal. Sorted-merge
// over the per-day sorted slices.
func (l *ScanLog) Departures() []dnssim.Departure {
	var out []dnssim.Departure
	for i := 1; i < len(l.days); i++ {
		prev, next := l.matched[i-1], l.matched[i]
		j, k := 0, 0
		for j < len(prev) {
			switch {
			case k >= len(next) || prev[j] < next[k]:
				out = append(out, dnssim.Departure{
					Domain:    prev[j],
					LastSeen:  l.days[i-1],
					FirstGone: l.days[i],
				})
				j++
			case prev[j] == next[k]:
				j++
				k++
			default:
				k++
			}
		}
	}
	return out
}
