package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func testCapture(t *testing.T) *ProfileCapture {
	t.Helper()
	return &ProfileCapture{
		Dir:         filepath.Join(t.TempDir(), "profiles"),
		CPUDuration: 10 * time.Millisecond,
		Logger:      discardLogger(),
	}
}

func TestProfileCaptureWritesRingEntry(t *testing.T) {
	p := testCapture(t)
	entry, err := p.Capture("slo-latency-page")
	if err != nil {
		t.Fatal(err)
	}
	if entry.ID != "p000001-slo-latency-page" {
		t.Errorf("entry ID = %q", entry.ID)
	}
	want := append([]string{}, entry.Files...)
	want = append(want, "meta.json")
	for _, f := range want {
		fi, err := os.Stat(filepath.Join(p.Dir, entry.ID, f))
		if err != nil {
			t.Errorf("missing %s: %v", f, err)
		} else if fi.Size() == 0 {
			t.Errorf("%s is empty", f)
		}
	}
	// heap and goroutine snapshots are always possible; cpu is best-effort
	// (another profiler may hold the lock) but normally present.
	if len(entry.Files) < 2 {
		t.Errorf("entry files = %v", entry.Files)
	}
	list := p.List()
	if len(list) != 1 || list[0].ID != entry.ID || list[0].Reason != "slo-latency-page" {
		t.Errorf("List = %+v", list)
	}
}

func TestProfileRingPrunesOldest(t *testing.T) {
	p := testCapture(t)
	for i := 0; i < profileRing+1; i++ {
		if _, err := p.Capture("x"); err != nil {
			t.Fatal(err)
		}
	}
	list := p.List()
	if len(list) != profileRing {
		t.Fatalf("ring holds %d entries, want %d", len(list), profileRing)
	}
	if newest := fmt.Sprintf("p%06d-x", profileRing+1); list[0].ID != "p000002-x" || list[len(list)-1].ID != newest {
		t.Errorf("ring = %q … %q, want p000002-x … %s (oldest should be pruned)", list[0].ID, list[len(list)-1].ID, newest)
	}
}

func TestProfileSeqRestoredFromDisk(t *testing.T) {
	p := testCapture(t)
	if _, err := p.Capture("before"); err != nil {
		t.Fatal(err)
	}
	// A fresh ProfileCapture over the same directory (daemon restart) must
	// not reuse sequence numbers of surviving entries.
	p2 := testCapture(t)
	p2.Dir = p.Dir
	p2.List()
	entry, err := p2.Capture("after")
	if err != nil {
		t.Fatal(err)
	}
	if entry.ID != "p000002-after" {
		t.Errorf("post-restart entry ID = %q, want p000002-after", entry.ID)
	}
}

func TestProfileHandler(t *testing.T) {
	p := testCapture(t)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/profile?reason=bench", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var entry ProfileEntry
	if err := json.NewDecoder(resp.Body).Decode(&entry); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || entry.Reason != "bench" {
		t.Fatalf("POST /v1/profile: status %d, entry %+v", resp.StatusCode, entry)
	}

	resp, err = http.Get(srv.URL + "/v1/profiles")
	if err != nil {
		t.Fatal(err)
	}
	var list []ProfileEntry
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].ID != entry.ID {
		t.Fatalf("GET /v1/profiles = %+v", list)
	}

	resp, err = http.Get(srv.URL + "/v1/profiles/" + entry.ID + "/heap.pprof")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("profile file download: status %d", resp.StatusCode)
	}

	// Traversal attempts must be rejected, not served.
	for _, path := range []string{
		"/v1/profiles/../secrets/heap.pprof",
		"/v1/profiles/" + entry.ID + "/..%2fmeta.json",
		"/v1/profiles/.hidden/heap.pprof",
	} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			t.Errorf("GET %s served; want rejection", path)
		}
	}
}

func TestProfileTriggerAsyncCooldown(t *testing.T) {
	p := testCapture(t)
	p.TriggerAsync("alert")
	// Second trigger inside the cooldown is dropped, so exactly one entry
	// lands no matter how fast the alert flaps.
	p.TriggerAsync("alert")
	deadline := time.Now().Add(5 * time.Second)
	for len(p.List()) == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // would surface a straggler capture
	if got := len(p.List()); got != 1 {
		t.Fatalf("captures after cooldown-limited triggers = %d, want 1", got)
	}
}
