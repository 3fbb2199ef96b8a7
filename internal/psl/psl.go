// Package psl implements public-suffix-list matching: given a DNS name it
// determines the effective TLD (public suffix) and the effective second-level
// domain (e2LD, the registerable domain). The paper aggregates every
// measurement by e2LD, so this package sits under all three detectors.
//
// The matcher implements the canonical PSL algorithm
// (https://publicsuffix.org/list/): normal rules, wildcard rules ("*.ck"),
// and exception rules ("!www.ck"); when several rules match, the one with the
// most labels prevails, and exceptions beat everything. Names that match no
// rule fall back to the implicit "*" rule (last label is the suffix).
package psl

import (
	"bufio"
	"errors"
	"fmt"
	"strings"

	"stalecert/internal/dnsname"
)

// Rule kinds.
const (
	ruleNormal = iota
	ruleWildcard
	ruleException
)

// List is an immutable compiled public suffix list. The zero value matches
// nothing but the implicit rule; use New or Default.
type List struct {
	// rules maps the rule's domain part (without "*." or "!") to its kind.
	rules map[string]uint8
}

// Errors returned by ETLDPlusOne.
var (
	ErrIsSuffix = errors.New("psl: name is itself a public suffix")
	ErrBadName  = errors.New("psl: malformed name")
)

// New compiles a list from PSL-format rules. Comment lines ("//") and blank
// lines are ignored so a raw PSL snapshot can be passed directly.
func New(lines []string) (*List, error) {
	l := &List{rules: make(map[string]uint8, len(lines))}
	for _, line := range lines {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "//") {
			continue
		}
		kind := uint8(ruleNormal)
		switch {
		case strings.HasPrefix(line, "!"):
			kind = ruleException
			line = line[1:]
		case strings.HasPrefix(line, "*."):
			kind = ruleWildcard
			line = line[2:]
		}
		line = dnsname.Canonical(line)
		if err := dnsname.Check(line, false); err != nil {
			return nil, fmt.Errorf("psl: rule %q: %w", line, err)
		}
		l.rules[line] = kind
	}
	return l, nil
}

// Parse compiles a list from a PSL-format text blob.
func Parse(text string) (*List, error) {
	var lines []string
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	return New(lines)
}

// defaultSnapshot is a compact PSL snapshot covering the suffixes the
// simulator issues under, plus representative wildcard/exception rules so the
// matcher's corner cases stay exercised in every run.
const defaultSnapshot = `
// generic TLDs
com
net
org
info
biz
io
dev
app
xyz
online
site
shop
// country codes
us
uk
co.uk
org.uk
ac.uk
de
fr
nl
jp
co.jp
ne.jp
au
com.au
net.au
br
com.br
cn
com.cn
in
co.in
ru
// wildcard + exception examples (real PSL entries)
*.ck
!www.ck
*.bd
`

var defaultList = mustParse(defaultSnapshot)

func mustParse(text string) *List {
	l, err := Parse(text)
	if err != nil {
		panic(err)
	}
	return l
}

// Default returns the embedded snapshot list shared by the whole simulator.
func Default() *List { return defaultList }

// PublicSuffix returns the effective TLD of name per the PSL algorithm.
// name must be canonical. The result is never empty for a non-empty name.
func (l *List) PublicSuffix(name string) string {
	bestLen := -1 // label count of prevailing rule match
	best := ""
	exception := false
	// Walk suffixes of name from shortest ("com") to longest.
	for s := lastLabel(name); s != ""; s = extend(name, s) {
		kind, ok := l.rules[s]
		if !ok {
			continue
		}
		switch kind {
		case ruleException:
			// Exception rule: public suffix is one label shorter.
			return dnsname.Parent(s)
		case ruleNormal:
			if n := dnsname.CountLabels(s); n > bestLen && !exception {
				bestLen, best = n, s
			}
		case ruleWildcard:
			// "*.s" matches one extra label below s.
			if w := oneBelow(name, s); w != "" {
				if n := dnsname.CountLabels(w); n > bestLen && !exception {
					bestLen, best = n, w
				}
			} else if n := dnsname.CountLabels(s); n > bestLen && !exception {
				// name IS the wildcard base; base itself acts as a suffix.
				bestLen, best = n, s
			}
		}
	}
	if best == "" {
		return lastLabel(name) // implicit "*" rule
	}
	return best
}

// ETLDPlusOne returns the effective second-level domain of name: the public
// suffix plus one label. It errors when the name is itself a public suffix.
func (l *List) ETLDPlusOne(name string) (string, error) {
	if name == "" {
		return "", ErrBadName
	}
	suffix := l.PublicSuffix(name)
	if name == suffix {
		return "", ErrIsSuffix
	}
	if !dnsname.IsSubdomain(name, suffix) {
		return "", fmt.Errorf("%w: %q not under suffix %q", ErrBadName, name, suffix)
	}
	return oneBelow(name, suffix), nil
}

// lastLabel returns the final label of name.
func lastLabel(name string) string {
	if i := strings.LastIndexByte(name, '.'); i >= 0 {
		return name[i+1:]
	}
	return name
}

// extend returns the suffix of name one label longer than cur, or "" when
// cur is already the whole name.
func extend(name, cur string) string {
	if name == cur {
		return ""
	}
	rest := name[:len(name)-len(cur)-1]              // strip ".cur"
	return name[strings.LastIndexByte(rest, '.')+1:] // a slice of name, no copy
}

// oneBelow returns the suffix of name exactly one label longer than base, or
// "" when name == base or name is not under base.
func oneBelow(name, base string) string {
	if name == base || !dnsname.IsSubdomain(name, base) {
		return ""
	}
	rest := name[:len(name)-len(base)-1]
	return name[strings.LastIndexByte(rest, '.')+1:]
}
