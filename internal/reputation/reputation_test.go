package reputation

import (
	"math/rand"
	"testing"

	"stalecert/internal/simtime"
)

func TestURLReportFlaggedThreshold(t *testing.T) {
	r := URLReport{VendorVotes: map[URLCategory]int{CatPhishing: 4}}
	if r.Flagged() {
		t.Fatal("4 votes should not flag")
	}
	r.VendorVotes[CatMalware] = 1
	if !r.Flagged() {
		t.Fatal("5 votes should flag")
	}
}

func TestDominantCategory(t *testing.T) {
	r := URLReport{VendorVotes: map[URLCategory]int{CatPhishing: 7, CatMalware: 3}}
	if got := r.DominantCategory(); got != CatPhishing {
		t.Fatalf("dominant = %v", got)
	}
}

func TestFileReportFlagged(t *testing.T) {
	r := FileReport{VendorLabels: []string{"a", "b", "c", "d"}}
	if r.Flagged() {
		t.Fatal("4 labels should not flag")
	}
	r.VendorLabels = append(r.VendorLabels, "e")
	if !r.Flagged() {
		t.Fatal("5 labels should flag")
	}
}

func TestExtractFamily(t *testing.T) {
	cases := []struct {
		labels []string
		want   string
	}{
		{[]string{"Trojan.zbot!1", "Win32.Zeus.A"}, FamSpyware},          // alias: zbot/zeus → spyware
		{[]string{"Ransom.Locker.X", "locker!gen"}, FamRansomware},       // locker → ransomware
		{[]string{"Trojan.Dropper!77", "loader.gen"}, FamDownloader},     // dropper/loader
		{[]string{"PUP.Adware.Bundle"}, FamGrayware},                     // adware
		{[]string{"Backdoor.RAT.Gen"}, FamBackdoor},                      // rat
		{[]string{"Trojan.Generic", "Win32.Agent"}, FamUnknown},          // only generic tokens
		{[]string{"Weirdofam.Thing"}, FamOther},                          // unknown specific family
		{[]string{}, FamUnknown},                                         // nothing
		{[]string{"Virus.Infector.A", "win32.virus.b"}, FamVirus},        // virus
		{[]string{"Spy.Keylogger.Gen", "infostealer.win32"}, FamSpyware}, // spyware
	}
	for _, c := range cases {
		if got := ExtractFamily(c.labels); got != c.want {
			t.Errorf("ExtractFamily(%v) = %q, want %q", c.labels, got, c.want)
		}
	}
}

func window(start, end simtime.Day) func(string) (simtime.Span, bool) {
	return func(string) (simtime.Span, bool) { return simtime.Span{Start: start, End: end}, true }
}

func TestAnalyzeTemporalCoincidence(t *testing.T) {
	feed := NewFeed()
	five := []string{"v1", "v2", "v3", "v4", "v5"}

	// inside.com: flagged inside the stale window.
	feed.AddFile(FileReport{Domain: "inside.com", FirstSubmission: 150, VendorLabels: append([]string{"Trojan.zbot"}, five...)})
	// outside.com: flagged before the window.
	feed.AddFile(FileReport{Domain: "outside.com", FirstSubmission: 50, VendorLabels: append([]string{"Trojan.zbot"}, five...)})
	// url.com: URL flagged inside the window.
	feed.AddURL(URLReport{Domain: "url.com", FirstFlagged: 180, VendorVotes: map[URLCategory]int{CatPhishing: 9}})
	// both.com: file and URL inside the window.
	feed.AddFile(FileReport{Domain: "both.com", FirstSubmission: 120, VendorLabels: append([]string{"Ransom.locker"}, five...)})
	feed.AddURL(URLReport{Domain: "both.com", FirstFlagged: 130, VendorVotes: map[URLCategory]int{CatMalware: 6}})
	// weak.com: below threshold.
	feed.AddURL(URLReport{Domain: "weak.com", FirstFlagged: 150, VendorVotes: map[URLCategory]int{CatMalware: 2}})

	sample := []string{"inside.com", "outside.com", "url.com", "both.com", "weak.com", "clean.com"}
	a := feed.Analyze(sample, window(100, 200))

	if a.Sampled != 6 {
		t.Fatalf("sampled = %d", a.Sampled)
	}
	if a.MWOnly != 1 || a.URLOnly != 1 || a.MWAndURL != 1 {
		t.Fatalf("buckets = MW:%d URL:%d both:%d", a.MWOnly, a.URLOnly, a.MWAndURL)
	}
	if a.TotalFlagged() != 3 {
		t.Fatalf("flagged = %d", a.TotalFlagged())
	}
	if a.ByFamily[FamSpyware] != 1 || a.ByFamily[FamRansomware] != 1 {
		t.Fatalf("families = %v", a.ByFamily)
	}
	if a.ByCategory[CatPhishing] != 1 || a.ByCategory[CatMalware] != 1 {
		t.Fatalf("categories = %v", a.ByCategory)
	}
}

func TestSynthesizeDeterministicAndBounded(t *testing.T) {
	domains := make([]string, 1000)
	for i := range domains {
		domains[i] = "d" + itoa(i) + ".com"
	}
	win := func(string) simtime.Span { return simtime.Span{Start: 0, End: 100} }
	f1 := Synthesize(rand.New(rand.NewSource(7)), domains, 0.05, win)
	f2 := Synthesize(rand.New(rand.NewSource(7)), domains, 0.05, win)

	count := func(f *Feed) int {
		n := 0
		for _, d := range domains {
			if len(f.urls[d]) > 0 || len(f.files[d]) > 0 {
				n++
			}
		}
		return n
	}
	n1, n2 := count(f1), count(f2)
	if n1 != n2 {
		t.Fatalf("synthesize not deterministic: %d vs %d", n1, n2)
	}
	if n1 < 20 || n1 > 100 {
		t.Fatalf("malicious count %d out of expected band for 5%% of 1000", n1)
	}
	// Analysis over the whole sample must flag roughly the seeded fraction.
	a := f1.Analyze(domains, func(string) (simtime.Span, bool) { return simtime.Span{Start: 0, End: 100}, true })
	if a.TotalFlagged() != n1 {
		t.Fatalf("flagged %d of %d seeded", a.TotalFlagged(), n1)
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [8]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}
