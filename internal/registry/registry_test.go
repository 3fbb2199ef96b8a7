package registry

import (
	"errors"
	"testing"
	"testing/quick"

	"stalecert/internal/simtime"
)

func TestRegisterAndLookup(t *testing.T) {
	r := New("com", "net")
	reg, err := r.Register("Example.COM", "alice", "godaddy", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Created != 100 || reg.Expires != 465 {
		t.Fatalf("reg = %+v", reg)
	}
	got, status, ok := r.Lookup("example.com")
	if !ok || status != StatusActive || got.Registrant != "alice" {
		t.Fatalf("lookup = %+v %v %v", got, status, ok)
	}
}

func TestRegisterValidation(t *testing.T) {
	r := New("com")
	cases := []struct {
		domain string
		err    error
	}{
		{"example.org", ErrWrongTLD},
		{"sub.example.com", ErrBadDomain},
		{"com", ErrBadDomain},
		{"bad domain.com", ErrBadDomain},
	}
	for _, c := range cases {
		if _, err := r.Register(c.domain, "x", "y", 0, 1); !errors.Is(err, c.err) {
			t.Errorf("Register(%q) = %v, want %v", c.domain, err, c.err)
		}
	}
	if _, err := r.Register("taken.com", "a", "r", 0, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("taken.com", "b", "r", 1, 1); !errors.Is(err, ErrTaken) {
		t.Fatalf("double register: %v", err)
	}
}

func TestLifecycleProgression(t *testing.T) {
	r := New("com")
	if _, err := r.Register("cycle.com", "alice", "r", 0, 1); err != nil {
		t.Fatal(err)
	}
	expires := simtime.Day(365)

	steps := []struct {
		day  simtime.Day
		want Status
	}{
		{expires, StatusActive}, // expiry day itself still active
		{expires + 1, StatusGrace},
		{expires + GraceDays, StatusGrace},
		{expires + GraceDays + 1, StatusRedemption},
		{expires + GraceDays + RedemptionDays, StatusRedemption},
		{expires + GraceDays + RedemptionDays + 1, StatusPendingDelete},
		{expires + GraceDays + RedemptionDays + PendingDeleteDays + 1, StatusAvailable},
	}
	for _, s := range steps {
		r.Tick(s.day)
		_, status, _ := r.Lookup("cycle.com")
		if status != s.want {
			t.Fatalf("day %v: status = %v, want %v", s.day, status, s.want)
		}
	}
	// Released: history keeps the old registration; re-registration gets a
	// new creation date.
	hist := r.History("cycle.com")
	if len(hist) != 1 || hist[0].Created != 0 {
		t.Fatalf("history = %+v", hist)
	}
	day := expires + GraceDays + RedemptionDays + PendingDeleteDays + 10
	reg, err := r.Register("cycle.com", "bob", "dropcatch", day, 1)
	if err != nil {
		t.Fatal(err)
	}
	if reg.Created != day || reg.Registrant != "bob" {
		t.Fatalf("re-registration = %+v", reg)
	}
}

func TestRenewDuringGraceRestoresActive(t *testing.T) {
	r := New("com")
	if _, err := r.Register("renew.com", "alice", "r", 0, 1); err != nil {
		t.Fatal(err)
	}
	r.Tick(370) // in grace
	if _, status, _ := r.Lookup("renew.com"); status != StatusGrace {
		t.Fatalf("status = %v", status)
	}
	if err := r.Renew("renew.com", 370, 1); err != nil {
		t.Fatal(err)
	}
	got, status, _ := r.Lookup("renew.com")
	if status != StatusActive || got.Expires != 370+365 {
		t.Fatalf("after renew: %+v %v", got, status)
	}
	// Renewal before expiry extends from the old expiry date.
	r2 := New("com")
	if _, err := r2.Register("early.com", "a", "r", 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := r2.Renew("early.com", 100, 1); err != nil {
		t.Fatal(err)
	}
	reg, _, _ := r2.Lookup("early.com")
	if reg.Expires != 365+365 {
		t.Fatalf("early renew expires = %v", reg.Expires)
	}
}

func TestRenewRejectedInRedemption(t *testing.T) {
	r := New("com")
	if _, err := r.Register("late.com", "a", "r", 0, 1); err != nil {
		t.Fatal(err)
	}
	r.Tick(365 + GraceDays + 10)
	if err := r.Renew("late.com", 365+GraceDays+10, 1); !errors.Is(err, ErrNotRenewable) {
		t.Fatalf("renew in redemption: %v", err)
	}
	if err := r.Renew("never.com", 0, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("renew unknown: %v", err)
	}
}

func TestDomainsListing(t *testing.T) {
	r := New("com")
	for _, d := range []string{"b.com", "a.com", "c.com"} {
		if _, err := r.Register(d, "x", "r", 0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.ActiveDomains(); len(got) != 3 || got[0] != "a.com" || got[2] != "c.com" {
		t.Fatalf("active domains = %v", got)
	}
	r.Tick(365 + GraceDays + RedemptionDays + PendingDeleteDays + 1)
	if got := r.ActiveDomains(); len(got) != 0 {
		t.Fatalf("active after drop = %v", got)
	}
}

func TestQuickLifecycleNeverSkipsStates(t *testing.T) {
	// Property: ticking day-by-day, status transitions follow the exact
	// order active → grace → redemption → pendingDelete → available.
	f := func(years uint8) bool {
		y := int(years)%3 + 1
		r := New("com")
		if _, err := r.Register("q.com", "a", "r", 0, y); err != nil {
			return false
		}
		order := map[Status]int{StatusActive: 0, StatusGrace: 1, StatusRedemption: 2, StatusPendingDelete: 3, StatusAvailable: 4}
		last := StatusActive
		for day := simtime.Day(0); day < simtime.Day(365*y+GraceDays+RedemptionDays+PendingDeleteDays+10); day++ {
			r.Tick(day)
			_, status, _ := r.Lookup("q.com")
			if order[status] < order[last] || order[status] > order[last]+1 {
				return false
			}
			last = status
		}
		return last == StatusAvailable
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}
