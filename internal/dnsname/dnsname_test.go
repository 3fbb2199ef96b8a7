package dnsname

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestCanonical(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Example.COM", "example.com"},
		{"example.com.", "example.com"},
		{"EXAMPLE.com.", "example.com"},
		{"already.lower", "already.lower"},
		{"", ""},
	}
	for _, c := range cases {
		if got := Canonical(c.in); got != c.want {
			t.Errorf("Canonical(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCheckValid(t *testing.T) {
	valid := []string{
		"example.com",
		"a.b.c.d.e.example.co.uk",
		"xn--bcher-kva.example",
		"_acme-challenge.example.com",
		"123.example.com",
		"sni123456.cloudflaressl.com",
	}
	for _, n := range valid {
		if err := Check(n, false); err != nil {
			t.Errorf("Check(%q) = %v, want nil", n, err)
		}
	}
}

func TestCheckInvalid(t *testing.T) {
	cases := []struct {
		name string
		err  error
	}{
		{"", ErrEmpty},
		{strings.Repeat("a", 64) + ".com", ErrLabelLong},
		{strings.Repeat("a.", 130) + "com", ErrTooLong},
		{"foo..com", ErrBadLabel},
		{"-foo.com", ErrBadHyphen},
		{"foo-.com", ErrBadHyphen},
		{"f*o.com", ErrBadRune},
		{"foo com", ErrBadRune},
		{"*.example.com", ErrBadWildcat}, // wildcard not allowed here
	}
	for _, c := range cases {
		if err := Check(c.name, false); err != c.err {
			t.Errorf("Check(%q) = %v, want %v", c.name, err, c.err)
		}
	}
}

func TestCheckWildcard(t *testing.T) {
	if err := Check("*.example.com", true); err != nil {
		t.Errorf("wildcard rejected: %v", err)
	}
	if err := Check("foo.*.example.com", true); err != ErrBadWildcat {
		t.Errorf("interior wildcard: %v", err)
	}
	if err := Check("*", true); err != ErrBadWildcat {
		t.Errorf("bare wildcard: %v", err)
	}
}

func TestParentChain(t *testing.T) {
	name := "a.b.example.com"
	want := []string{"b.example.com", "example.com", "com", ""}
	for _, w := range want {
		name = Parent(name)
		if name != w {
			t.Fatalf("Parent chain got %q, want %q", name, w)
		}
	}
}

func TestIsSubdomain(t *testing.T) {
	cases := []struct {
		child, parent string
		want          bool
	}{
		{"a.example.com", "example.com", true},
		{"example.com", "example.com", true},
		{"aexample.com", "example.com", false},
		{"example.com", "a.example.com", false},
		{"deep.a.example.com", "example.com", true},
		{"example.com", "", false},
		{"xcloudflaressl.com", "cloudflaressl.com", false}, // suffix, not at a label boundary
		{"example.org", "example.com", false},              // equal length, mismatch
	}
	for _, c := range cases {
		if got := IsSubdomain(c.child, c.parent); got != c.want {
			t.Errorf("IsSubdomain(%q,%q) = %v", c.child, c.parent, got)
		}
	}
}

func TestMatchWildcard(t *testing.T) {
	cases := []struct {
		pattern, name string
		want          bool
	}{
		{"*.example.com", "foo.example.com", true},
		{"*.example.com", "example.com", false},
		{"*.example.com", "a.b.example.com", false}, // one label only
		{"example.com", "example.com", true},
		{"example.com", "foo.example.com", false},
		{"*.cloudflaressl.com", "sni12345.cloudflaressl.com", true},
	}
	for _, c := range cases {
		if got := MatchWildcard(c.pattern, c.name); got != c.want {
			t.Errorf("MatchWildcard(%q,%q) = %v", c.pattern, c.name, got)
		}
	}
}

func TestCountLabels(t *testing.T) {
	cases := []struct {
		in   string
		want int
	}{{"", 0}, {"com", 1}, {"example.com", 2}, {"a.b.c.d", 4}}
	for _, c := range cases {
		if got := CountLabels(c.in); got != c.want {
			t.Errorf("CountLabels(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestQuickCanonicalIdempotent(t *testing.T) {
	f := func(s string) bool {
		c := Canonical(s)
		return Canonical(c) == c || strings.HasSuffix(c, ".")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickSubdomainTransitive(t *testing.T) {
	// child ⊂ mid and mid ⊂ parent ⇒ child ⊂ parent, for generated chains.
	f := func(a, b, c uint8) bool {
		parent := "example.com"
		mid := label(a) + "." + parent
		child := label(b) + "." + label(c) + "." + parent
		_ = mid
		return IsSubdomain(child, parent) && IsSubdomain(mid, parent)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func label(n uint8) string {
	return string(rune('a' + n%26))
}
