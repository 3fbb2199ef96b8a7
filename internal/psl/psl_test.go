package psl

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPublicSuffixBasic(t *testing.T) {
	l := Default()
	cases := []struct{ name, want string }{
		{"example.com", "com"},
		{"www.example.com", "com"},
		{"foo.co.uk", "co.uk"},
		{"www.foo.co.uk", "co.uk"},
		{"example.jp", "jp"},
		{"foo.co.jp", "co.jp"},
		{"com", "com"},
		{"co.uk", "co.uk"},
		// Unknown TLD falls back to implicit rule.
		{"example.unknowntld", "unknowntld"},
		{"a.b.example.unknowntld", "unknowntld"},
	}
	for _, c := range cases {
		if got := l.PublicSuffix(c.name); got != c.want {
			t.Errorf("PublicSuffix(%q) = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestPublicSuffixWildcardAndException(t *testing.T) {
	l := Default()
	cases := []struct{ name, want string }{
		// *.ck: any label directly under ck is a public suffix.
		{"foo.ck", "foo.ck"},
		{"bar.foo.ck", "foo.ck"},
		// !www.ck exception: www.ck is registerable, suffix is ck.
		{"www.ck", "ck"},
		{"sub.www.ck", "ck"},
		// wildcard base with nothing below it
		{"ck", "ck"},
		{"example.bd", "example.bd"},
	}
	for _, c := range cases {
		if got := l.PublicSuffix(c.name); got != c.want {
			t.Errorf("PublicSuffix(%q) = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestETLDPlusOne(t *testing.T) {
	l := Default()
	cases := []struct{ name, want string }{
		{"example.com", "example.com"},
		{"www.example.com", "example.com"},
		{"a.b.c.example.com", "example.com"},
		{"foo.co.uk", "foo.co.uk"},
		{"www.foo.co.uk", "foo.co.uk"},
		{"bar.foo.ck", "bar.foo.ck"},
		{"www.ck", "www.ck"},
		{"sub.www.ck", "www.ck"},
	}
	for _, c := range cases {
		got, err := l.ETLDPlusOne(c.name)
		if err != nil {
			t.Errorf("ETLDPlusOne(%q) error: %v", c.name, err)
			continue
		}
		if got != c.want {
			t.Errorf("ETLDPlusOne(%q) = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestETLDPlusOneErrors(t *testing.T) {
	l := Default()
	for _, name := range []string{"com", "co.uk", "foo.ck", ""} {
		if _, err := l.ETLDPlusOne(name); err == nil {
			t.Errorf("ETLDPlusOne(%q) = nil error, want error", name)
		}
	}
}

func TestNewRejectsBadRules(t *testing.T) {
	if _, err := New([]string{"bad rule with spaces"}); err == nil {
		t.Fatal("expected error for malformed rule")
	}
}

func TestParseIgnoresCommentsAndBlanks(t *testing.T) {
	l, err := Parse("// comment\n\ncom\n  \n// another\nnet\n")
	if err != nil {
		t.Fatal(err)
	}
	if l.PublicSuffix("a.com") != "com" || l.PublicSuffix("a.net") != "net" {
		t.Fatal("parsed rules missing")
	}
}

func TestCustomList(t *testing.T) {
	l, err := New([]string{"example", "*.example", "!allowed.example"})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.PublicSuffix("x.example"); got != "x.example" {
		t.Errorf("wildcard match = %q", got)
	}
	if got := l.PublicSuffix("allowed.example"); got != "example" {
		t.Errorf("exception match = %q", got)
	}
	if got, err := l.ETLDPlusOne("www.allowed.example"); err != nil || got != "allowed.example" {
		t.Errorf("exception e2LD = %q, %v", got, err)
	}
}

func TestQuickE2LDIsSuffixOfName(t *testing.T) {
	l := Default()
	f := func(a, b, c uint8) bool {
		name := lbl(a) + "." + lbl(b) + "." + lbl(c) + ".com"
		e2, err := l.ETLDPlusOne(name)
		if err != nil {
			return false
		}
		return strings.HasSuffix(name, e2) && strings.HasSuffix(e2, ".com")
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickE2LDIdempotent(t *testing.T) {
	l := Default()
	f := func(a, b uint8) bool {
		name := lbl(a) + "." + lbl(b) + ".co.uk"
		e2, err := l.ETLDPlusOne(name)
		if err != nil {
			return false
		}
		again, err := l.ETLDPlusOne(e2)
		return err == nil && again == e2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func lbl(n uint8) string {
	return string([]byte{'a' + n%26, 'a' + (n/26)%26})
}

func BenchmarkETLDPlusOne(b *testing.B) {
	l := Default()
	names := []string{
		"www.example.com", "a.b.c.deep.example.co.uk",
		"foo.bar.ck", "host123.shop",
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := l.ETLDPlusOne(names[i%len(names)]); err != nil {
			b.Fatal(err)
		}
	}
}
