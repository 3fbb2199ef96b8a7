// Package simtime provides the day-granular simulated clock used across the
// reproduction. All datasets in the paper (CT, CRL, WHOIS, active DNS) are
// collected or joined at day granularity, so a compact integer day type is
// both faster and less error-prone than time.Time arithmetic.
package simtime

import (
	"fmt"
	"time"
)

// Epoch is day zero of the simulation: 2013-01-01 UTC, just before the
// earliest CT entries the paper analyses (2013-03).
var Epoch = time.Date(2013, time.January, 1, 0, 0, 0, 0, time.UTC)

// Day counts days since Epoch. Negative values are valid and denote days
// before the epoch (used for pre-2013 registrations).
type Day int

// Sentinel values. NoDay marks an unset day; Forever sorts after every real
// day and is used for open-ended validity.
const (
	NoDay   Day = -1 << 30
	Forever Day = 1 << 30
)

// FromTime converts a wall-clock time to a Day, truncating to UTC midnight.
func FromTime(t time.Time) Day {
	return Day(t.UTC().Sub(Epoch) / (24 * time.Hour))
}

// FromDate builds a Day from a calendar date.
func FromDate(year int, month time.Month, day int) Day {
	return FromTime(time.Date(year, month, day, 0, 0, 0, 0, time.UTC))
}

// MustParse parses a Day from "2006-01-02" format, panicking on bad input.
// It is intended for static scenario tables.
func MustParse(s string) Day {
	d, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return d
}

// Parse parses a Day from "2006-01-02" format.
func Parse(s string) (Day, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return NoDay, fmt.Errorf("simtime: parse %q: %w", s, err)
	}
	return FromTime(t), nil
}

// Time returns the UTC midnight instant of d.
func (d Day) Time() time.Time {
	return Epoch.Add(time.Duration(d) * 24 * time.Hour)
}

// String renders d as an ISO date, or a sentinel name.
func (d Day) String() string {
	var buf [10]byte
	return string(d.AppendFormat(buf[:0]))
}

// AppendFormat appends the String form of d to b without allocating.
func (d Day) AppendFormat(b []byte) []byte {
	switch d {
	case NoDay:
		return append(b, "never"...)
	case Forever:
		return append(b, "forever"...)
	}
	return d.Time().AppendFormat(b, "2006-01-02")
}

// Year returns the calendar year containing d.
func (d Day) Year() int { return d.Time().Year() }

// Month returns a sortable month key of the form year*12+month-1.
// It is the bucketing key for the paper's monthly figures (Fig. 4, 5a, 5b).
func (d Day) Month() Month {
	t := d.Time()
	return Month(t.Year()*12 + int(t.Month()) - 1)
}

// Month is a sortable calendar-month key (year*12 + month-1).
type Month int

// MonthOf builds a Month key from a calendar year and month.
func MonthOf(year int, m time.Month) Month {
	return Month(year*12 + int(m) - 1)
}

// Year returns the calendar year of m.
func (m Month) Year() int { return int(m) / 12 }

// MonthOfYear returns the calendar month of m.
func (m Month) MonthOfYear() time.Month { return time.Month(int(m)%12 + 1) }

// First returns the first Day of month m.
func (m Month) First() Day {
	return FromTime(time.Date(m.Year(), m.MonthOfYear(), 1, 0, 0, 0, 0, time.UTC))
}

// String renders m as "2006-01".
func (m Month) String() string {
	return fmt.Sprintf("%04d-%02d", m.Year(), int(m.MonthOfYear()))
}

// Span is an inclusive-start, exclusive-end day interval [Start, End).
// A certificate valid on notBefore..notAfter maps to
// Span{notBefore, notAfter+1} when inclusive semantics are needed; this repo
// stores certificate validity as [NotBefore, NotAfter] inclusive and uses
// Span for derived intervals such as staleness periods.
type Span struct {
	Start Day
	End   Day
}

// Len returns the number of days in the span, or 0 for empty/inverted spans.
func (s Span) Len() int {
	if s.End <= s.Start {
		return 0
	}
	return int(s.End - s.Start)
}

// Contains reports whether day d falls inside the span.
func (s Span) Contains(d Day) bool { return d >= s.Start && d < s.End }
