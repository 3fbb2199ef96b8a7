// Package dnsname provides canonicalisation and label arithmetic for DNS
// names. Every name that crosses a package boundary in this repository is
// canonical: lower-case ASCII, no trailing dot, labels separated by single
// dots. The package also implements the wildcard-matching rules certificates
// use (RFC 6125 §6.4.3: a single '*' as the entire left-most label).
package dnsname

import (
	"errors"
	"strings"
)

// Errors returned by Check.
var (
	ErrEmpty      = errors.New("dnsname: empty name")
	ErrTooLong    = errors.New("dnsname: name exceeds 253 octets")
	ErrBadLabel   = errors.New("dnsname: bad label")
	ErrLabelLong  = errors.New("dnsname: label exceeds 63 octets")
	ErrBadRune    = errors.New("dnsname: invalid character")
	ErrBadHyphen  = errors.New("dnsname: label starts or ends with hyphen")
	ErrBadWildcat = errors.New("dnsname: wildcard label must be exactly *")
)

// Canonical lower-cases s and strips one trailing dot. It does not validate;
// call Check for that.
func Canonical(s string) string {
	s = strings.TrimSuffix(s, ".")
	// Fast path: already lower-case.
	lower := true
	for i := 0; i < len(s); i++ {
		if c := s[i]; c >= 'A' && c <= 'Z' {
			lower = false
			break
		}
	}
	if lower {
		return s
	}
	return strings.ToLower(s)
}

// Check validates a canonical DNS name, optionally permitting a leading
// wildcard label ("*.example.com").
func Check(name string, allowWildcard bool) error {
	if name == "" {
		return ErrEmpty
	}
	if len(name) > 253 {
		return ErrTooLong
	}
	labels := strings.Split(name, ".")
	for i, l := range labels {
		if l == "*" {
			if !allowWildcard || i != 0 || len(labels) == 1 {
				return ErrBadWildcat
			}
			continue
		}
		if err := checkLabel(l); err != nil {
			return err
		}
	}
	return nil
}

func checkLabel(l string) error {
	if l == "" {
		return ErrBadLabel
	}
	if len(l) > 63 {
		return ErrLabelLong
	}
	if l[0] == '-' || l[len(l)-1] == '-' {
		return ErrBadHyphen
	}
	for i := 0; i < len(l); i++ {
		c := l[i]
		switch {
		case c >= 'a' && c <= 'z':
		case c >= '0' && c <= '9':
		case c == '-' || c == '_': // '_' occurs in ACME/service labels
		default:
			return ErrBadRune
		}
	}
	return nil
}

// CountLabels returns the number of labels without allocating.
func CountLabels(name string) int {
	if name == "" {
		return 0
	}
	return strings.Count(name, ".") + 1
}

// Parent returns the name with its left-most label removed, or "" when no
// parent exists ("com" → "").
func Parent(name string) string {
	i := strings.IndexByte(name, '.')
	if i < 0 {
		return ""
	}
	return name[i+1:]
}

// IsSubdomain reports whether child is equal to, or a strict subdomain of,
// parent. Both must be canonical.
func IsSubdomain(child, parent string) bool {
	if parent == "" {
		return false
	}
	n := len(child) - len(parent)
	return n >= 0 && child[n:] == parent && (n == 0 || child[n-1] == '.')
}

// MatchWildcard reports whether pattern (possibly "*.example.com") covers
// name under RFC 6125 rules: the wildcard matches exactly one left-most
// label and never matches the bare parent.
func MatchWildcard(pattern, name string) bool {
	if !strings.HasPrefix(pattern, "*.") {
		return pattern == name
	}
	suffix := pattern[1:] // ".example.com"
	if !strings.HasSuffix(name, suffix) {
		return false
	}
	first := name[:len(name)-len(suffix)]
	return first != "" && !strings.Contains(first, ".")
}
