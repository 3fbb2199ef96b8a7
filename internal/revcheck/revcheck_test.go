package revcheck

import (
	"testing"

	"stalecert/internal/crl"
	"stalecert/internal/x509sim"
)

func testCert(t *testing.T, serial uint64) *x509sim.Certificate {
	t.Helper()
	c, err := x509sim.New(x509sim.SerialNumber(serial), 1, x509sim.KeyID(serial), []string{"a.com"}, 0, 400)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func testAuthorities(t *testing.T) (map[x509sim.IssuerID]*crl.Authority, *x509sim.Certificate, *x509sim.Certificate) {
	t.Helper()
	a := crl.NewAuthority("Test CA")
	revoked := testCert(t, 1)
	good := testCert(t, 2)
	a.Revoke(revoked.Issuer, revoked.Serial, 100, crl.KeyCompromise)
	return map[x509sim.IssuerID]*crl.Authority{1: a}, revoked, good
}

func TestCRLChecker(t *testing.T) {
	auths, revoked, good := testAuthorities(t)
	c := &CRLChecker{Authorities: auths}
	st, reason, err := c.Check(revoked, 200)
	if err != nil || st != StatusRevoked || reason != crl.KeyCompromise {
		t.Fatalf("revoked check = %v %v %v", st, reason, err)
	}
	// Before the revocation day the cert is still good.
	if st, _, _ := c.Check(revoked, 50); st != StatusGood {
		t.Fatalf("pre-revocation status = %v", st)
	}
	if st, _, _ := c.Check(good, 200); st != StatusGood {
		t.Fatalf("good status = %v", st)
	}
	unknown := testCert(t, 3)
	unknown.Issuer = 99
	if st, _, err := c.Check(unknown, 200); st != StatusUnavailable || err == nil {
		t.Fatalf("unknown issuer = %v %v", st, err)
	}
}

func TestProfilesAgainstRevokedCert(t *testing.T) {
	auths, revoked, _ := testAuthorities(t)
	checker := &CRLChecker{Authorities: auths}

	cases := []struct {
		profile     Profile
		direct      bool // accepted with working infrastructure
		intercepted bool // accepted with blocked revocation traffic
	}{
		{ProfileChrome, true, true},   // never checks
		{ProfileEdge, true, true},     // never checks
		{ProfileFirefox, false, true}, // checks, soft-fails
		{ProfileSafari, false, true},  // checks, soft-fails
		{ProfileCurl, true, true},     // never checks
		{ProfileStrict, false, false}, // hard-fail
	}
	blocked := Intercepted()
	for _, c := range cases {
		if got := c.profile.Evaluate(revoked, 200, checker); got != c.direct {
			t.Errorf("%s direct accepted = %v, want %v", c.profile.Name, got, c.direct)
		}
		if got := c.profile.Evaluate(revoked, 200, blocked); got != c.intercepted {
			t.Errorf("%s intercepted accepted = %v, want %v", c.profile.Name, got, c.intercepted)
		}
	}
}

func TestMeasureEffectiveness(t *testing.T) {
	auths, revoked, _ := testAuthorities(t)
	checker := &CRLChecker{Authorities: auths}
	rows := MeasureEffectiveness([]*x509sim.Certificate{revoked}, 200, checker)
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	byName := map[string]EffectivenessRow{}
	for _, r := range rows {
		byName[r.Profile.Name] = r
	}
	// The paper's conclusion in numbers: under interception, every profile
	// except hard-fail accepts the revoked certificate.
	for _, name := range []string{"Chrome", "Edge", "Firefox", "Safari", "curl"} {
		if byName[name].AcceptedIntercepted != 1 {
			t.Errorf("%s should accept under interception", name)
		}
	}
	if byName["hard-fail"].AcceptedIntercepted != 0 {
		t.Error("hard-fail should reject under interception")
	}
	if byName["Firefox"].AcceptedDirect != 0 {
		t.Error("Firefox should reject with working infrastructure")
	}
	if byName["Chrome"].AcceptedDirect != 1 {
		t.Error("Chrome never checks, should accept")
	}
}
