// Package reputation is the threat-intelligence substrate standing in for
// VirusTotal + AVClass2 + Malpedia in the paper's Table 5 analysis: a feed
// of vendor verdicts on URLs and files per domain, an AV-label family
// extractor with alias resolution, and the vendor-threshold analysis that
// correlates malicious activity with stale-certificate control windows.
package reputation

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"stalecert/internal/simtime"
)

// DetectionThreshold is the paper's bar: a URL or file counts as malicious
// when at least five vendors flag it.
const DetectionThreshold = 5

// URLCategory is a vendor's verdict class for a URL.
type URLCategory string

// Verdict categories used in Table 5.
const (
	CatPhishing  URLCategory = "phishing"
	CatMalicious URLCategory = "malicious"
	CatMalware   URLCategory = "malware"
)

// URLReport is one URL's aggregated vendor verdicts.
type URLReport struct {
	URL    string
	Domain string
	// FirstFlagged is the first day the detection threshold was reached.
	FirstFlagged simtime.Day
	// VendorVotes counts flagging vendors per category.
	VendorVotes map[URLCategory]int
}

// Flagged reports whether the URL crosses the detection threshold.
func (r URLReport) Flagged() bool {
	total := 0
	for _, n := range r.VendorVotes {
		total += n
	}
	return total >= DetectionThreshold
}

// DominantCategory returns the category with the most votes.
func (r URLReport) DominantCategory() URLCategory {
	best, bestN := CatMalicious, -1
	for _, c := range []URLCategory{CatPhishing, CatMalicious, CatMalware} {
		if n := r.VendorVotes[c]; n > bestN {
			best, bestN = c, n
		}
	}
	return best
}

// FileReport is one malware sample's vendor labels, associated with a domain
// that distributed or contacted it.
type FileReport struct {
	SHA256 string
	Domain string
	// FirstSubmission is the sample's earliest submission day.
	FirstSubmission simtime.Day
	// VendorLabels are raw AV detection names ("Trojan.GenericKD!zbot"...).
	VendorLabels []string
}

// Flagged reports whether enough vendors labelled the sample.
func (r FileReport) Flagged() bool { return len(r.VendorLabels) >= DetectionThreshold }

// Family categories (Table 5 left column).
const (
	FamGrayware   = "grayware"
	FamBackdoor   = "backdoor"
	FamUnknown    = "Unknown"
	FamDownloader = "downloader"
	FamVirus      = "virus"
	FamSpyware    = "spyware"
	FamRansomware = "ransomware"
	FamOther      = "Other"
)

// familyAliases resolves family names to canonical categories, playing the
// role of AVClass2 tag extraction plus Malpedia alias resolution.
var familyAliases = map[string]string{
	"adware": FamGrayware, "pup": FamGrayware, "grayware": FamGrayware, "riskware": FamGrayware,
	"backdoor": FamBackdoor, "rat": FamBackdoor, "remoteadmin": FamBackdoor,
	"downloader": FamDownloader, "dropper": FamDownloader, "loader": FamDownloader,
	"virus": FamVirus, "infector": FamVirus,
	"spyware": FamSpyware, "infostealer": FamSpyware, "stealer": FamSpyware, "keylogger": FamSpyware,
	"ransomware": FamRansomware, "ransom": FamRansomware, "locker": FamRansomware,
	"banker": FamSpyware, "zbot": FamSpyware, "zeus": FamSpyware,
}

// ExtractFamily derives a family category from raw vendor labels by
// tokenising and voting, returning FamUnknown when no tokens resolve and
// FamOther when tokens resolve but to no known category.
func ExtractFamily(labels []string) string {
	votes := make(map[string]int)
	resolved := false
	for _, label := range labels {
		for _, tok := range tokenize(label) {
			if fam, ok := familyAliases[tok]; ok {
				votes[fam]++
				resolved = true
			} else if len(tok) >= 4 && !genericTokens[tok] {
				votes[FamOther]++
			}
		}
	}
	if !resolved && len(votes) == 0 {
		return FamUnknown
	}
	best, bestN := FamUnknown, 0
	fams := make([]string, 0, len(votes))
	for f := range votes {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	for _, f := range fams {
		// Known families beat the Other bucket at equal votes.
		n := votes[f]
		if f != FamOther {
			n *= 2
		}
		if n > bestN {
			best, bestN = f, n
		}
	}
	return best
}

var genericTokens = map[string]bool{
	"trojan": true, "generic": true, "agent": true, "malware": true,
	"win32": true, "win64": true, "html": true, "js": true, "heur": true,
	"variant": true, "genetickd": true, "generickd": true,
}

func tokenize(label string) []string {
	label = strings.ToLower(label)
	return strings.FieldsFunc(label, func(r rune) bool {
		return !(r >= 'a' && r <= 'z') && !(r >= '0' && r <= '9')
	})
}

// Feed is the queryable threat-intel corpus.
type Feed struct {
	urls  map[string][]URLReport
	files map[string][]FileReport
}

// NewFeed creates an empty feed.
func NewFeed() *Feed {
	return &Feed{urls: make(map[string][]URLReport), files: make(map[string][]FileReport)}
}

// AddURL records a URL report.
func (f *Feed) AddURL(r URLReport) { f.urls[r.Domain] = append(f.urls[r.Domain], r) }

// AddFile records a file report.
func (f *Feed) AddFile(r FileReport) { f.files[r.Domain] = append(f.files[r.Domain], r) }

// Analysis is the Table 5 output.
type Analysis struct {
	Sampled int
	// MalwareDomains / URLDomains count domains whose flagged activity
	// temporally coincides with a stale-certificate window.
	MalwareDomains int
	URLDomains     int
	MWOnly         int
	MWAndURL       int
	URLOnly        int
	// ByFamily and ByCategory break the counts down as in Table 5.
	ByFamily   map[string]int
	ByCategory map[URLCategory]int
}

// TotalFlagged returns the number of distinct flagged domains.
func (a Analysis) TotalFlagged() int { return a.MWOnly + a.MWAndURL + a.URLOnly }

// Analyze reproduces the Table 5 methodology over a domain sample: for each
// domain, find flagged URLs and files whose first flagged/submission day
// falls inside the domain's stale window, and tally families and categories.
func (f *Feed) Analyze(sample []string, staleWindow func(domain string) (simtime.Span, bool)) Analysis {
	a := Analysis{
		Sampled:    len(sample),
		ByFamily:   make(map[string]int),
		ByCategory: make(map[URLCategory]int),
	}
	for _, domain := range sample {
		span, ok := staleWindow(domain)
		if !ok {
			continue
		}
		mw, url := false, false
		// Malware files: minimum first_submission across flagged samples
		// must fall in the stale window.
		var minSub simtime.Day = simtime.Forever
		var bestLabels []string
		for _, fr := range f.files[domain] {
			if fr.Flagged() && fr.FirstSubmission < minSub {
				minSub = fr.FirstSubmission
				bestLabels = fr.VendorLabels
			}
		}
		if minSub != simtime.Forever && span.Contains(minSub) {
			mw = true
			a.ByFamily[ExtractFamily(bestLabels)]++
		}
		for _, ur := range f.urls[domain] {
			if ur.Flagged() && span.Contains(ur.FirstFlagged) {
				if !url {
					a.ByCategory[ur.DominantCategory()]++
				}
				url = true
			}
		}
		switch {
		case mw && url:
			a.MWAndURL++
		case mw:
			a.MWOnly++
		case url:
			a.URLOnly++
		}
		if mw {
			a.MalwareDomains++
		}
		if url {
			a.URLDomains++
		}
	}
	return a
}

// Synthesize populates a feed over the given domains: maliciousFraction of
// them receive flagged activity at a day drawn inside their window via
// within. Deterministic under the seeded rng.
func Synthesize(rng *rand.Rand, domains []string, maliciousFraction float64, within func(domain string) simtime.Span) *Feed {
	feed := NewFeed()
	families := []string{"zbot", "locker", "dropper", "rat", "adware", "stealer", "infector", "weirdofam"}
	cats := []URLCategory{CatPhishing, CatMalicious, CatMalware}
	for _, d := range domains {
		if rng.Float64() >= maliciousFraction {
			continue
		}
		span := within(d)
		if span.Len() == 0 {
			continue
		}
		day := span.Start + simtime.Day(rng.Intn(span.Len()))
		kind := rng.Intn(3) // 0: file only, 1: url only, 2: both
		if kind == 0 || kind == 2 {
			fam := families[rng.Intn(len(families))]
			labels := make([]string, DetectionThreshold+rng.Intn(10))
			for i := range labels {
				labels[i] = fmt.Sprintf("Trojan.%s!%d", fam, i)
			}
			feed.AddFile(FileReport{
				SHA256:          fmt.Sprintf("%064x", rng.Int63()),
				Domain:          d,
				FirstSubmission: day,
				VendorLabels:    labels,
			})
		}
		if kind == 1 || kind == 2 {
			votes := map[URLCategory]int{cats[rng.Intn(len(cats))]: DetectionThreshold + rng.Intn(20)}
			feed.AddURL(URLReport{
				URL:          "http://" + d + "/payload",
				Domain:       d,
				FirstFlagged: day,
				VendorVotes:  votes,
			})
		}
	}
	return feed
}
