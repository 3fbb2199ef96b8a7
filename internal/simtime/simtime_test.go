package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEpochIsDayZero(t *testing.T) {
	if d := FromTime(Epoch); d != 0 {
		t.Fatalf("FromTime(Epoch) = %d, want 0", d)
	}
}

func TestFromDateRoundTrip(t *testing.T) {
	cases := []struct {
		y    int
		m    time.Month
		d    int
		want string
	}{
		{2013, time.January, 1, "2013-01-01"},
		{2013, time.March, 15, "2013-03-15"},
		{2020, time.February, 29, "2020-02-29"}, // leap day
		{2023, time.May, 12, "2023-05-12"},
		{2012, time.December, 31, "2012-12-31"}, // pre-epoch
		{1999, time.July, 4, "1999-07-04"},
	}
	for _, c := range cases {
		d := FromDate(c.y, c.m, c.d)
		if got := d.String(); got != c.want {
			t.Errorf("FromDate(%d,%v,%d).String() = %q, want %q", c.y, c.m, c.d, got, c.want)
		}
	}
}

func TestPreEpochIsNegative(t *testing.T) {
	if d := FromDate(2012, time.December, 31); d != -1 {
		t.Fatalf("2012-12-31 = %d, want -1", d)
	}
}

func TestParse(t *testing.T) {
	d, err := Parse("2022-08-01")
	if err != nil {
		t.Fatal(err)
	}
	if d.String() != "2022-08-01" {
		t.Fatalf("round-trip = %q", d.String())
	}
	if _, err := Parse("not-a-date"); err == nil {
		t.Fatal("expected error for malformed date")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustParse did not panic on bad input")
		}
	}()
	MustParse("bogus")
}

func TestSentinelStrings(t *testing.T) {
	if NoDay.String() != "never" {
		t.Errorf("NoDay.String() = %q", NoDay.String())
	}
	if Forever.String() != "forever" {
		t.Errorf("Forever.String() = %q", Forever.String())
	}
}

func TestMonthKeys(t *testing.T) {
	d := MustParse("2021-11-22")
	m := d.Month()
	if m.Year() != 2021 || m.MonthOfYear() != time.November {
		t.Fatalf("month key decomposed to %d-%v", m.Year(), m.MonthOfYear())
	}
	if m.String() != "2021-11" {
		t.Fatalf("month string = %q", m.String())
	}
	if m.First().String() != "2021-11-01" {
		t.Fatalf("month first = %q", m.First().String())
	}
	if MonthOf(2021, time.November) != m {
		t.Fatal("MonthOf mismatch")
	}
}

func TestMonthOrderingAcrossYears(t *testing.T) {
	dec := MonthOf(2018, time.December)
	jan := MonthOf(2019, time.January)
	if jan-dec != 1 {
		t.Fatalf("month keys not contiguous across year boundary: %d", jan-dec)
	}
}

func TestSpanBasics(t *testing.T) {
	s := Span{Start: 10, End: 20}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Contains(10) || s.Contains(20) || !s.Contains(19) {
		t.Fatal("Contains boundary semantics wrong")
	}
	empty := Span{Start: 20, End: 10}
	if empty.Len() != 0 {
		t.Fatalf("inverted span Len = %d", empty.Len())
	}
}

func TestQuickDayRoundTrip(t *testing.T) {
	f := func(n int16) bool {
		d := Day(n)
		return FromTime(d.Time()) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickMonthFirstWithinMonth(t *testing.T) {
	f := func(n uint16) bool {
		d := Day(int(n) % 5000) // 2013..~2026
		m := d.Month()
		first := m.First()
		return first <= d && first.Month() == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
