package worldsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"stalecert/internal/ca"
	"stalecert/internal/cdn"
	"stalecert/internal/crl"
	"stalecert/internal/ctlog"
	"stalecert/internal/dnsname"
	"stalecert/internal/dnssim"
	"stalecert/internal/monitor"
	"stalecert/internal/psl"
	"stalecert/internal/registry"
	"stalecert/internal/simtime"
	"stalecert/internal/whois"
	"stalecert/internal/x509sim"
)

// Hosting is how a domain serves HTTPS (§2.3's five methods, collapsed to
// the four the pipelines distinguish).
type Hosting uint8

// Hosting choices.
const (
	HostNone     Hosting = iota // no HTTPS
	HostSelf                    // method 1: self-managed certificate
	HostCDNNS                   // method 3 via NS delegation
	HostCDNCNAME                // method 3 via CNAME delegation
	HostPlatform                // methods 4/5: registrar / hosting platform
)

// domainState is the simulator's ground truth for one e2LD registration
// cycle.
type domainState struct {
	name       string
	registrant string
	account    string // CA account of the current operator
	hosting    Hosting
	issuer     x509sim.IssuerID // CA used for self/platform certs
	active     bool
	intendKeep bool // registrant intends to renew the domain
	generation int  // registration cycle count
}

// World is a running simulation. Construct with NewWorld, advance with Run
// (or Step for finer control), then hand the produced datasets to the
// detection pipelines.
type World struct {
	S   Scenario
	rng *rand.Rand

	Registry *registry.Registry
	DNS      *dnssim.Store
	Logs     *ctlog.Collection
	Dir      *ca.Directory
	CAs      map[x509sim.IssuerID]*ca.CA
	CDN      *cdn.Provider
	Whois    *whois.Archive
	Ledger   *crl.CoverageLedger
	PSL      *psl.List

	// ADNS is the compact daily scan record within the aDNS window.
	ADNS *ScanLog

	domains map[string]*domainState
	events  eventHeap
	seq     uint64

	nextKey         uint64
	nextName        int
	nextOwner       int
	today           simtime.Day
	crlFetched      bool
	crlOK           map[string]int // per-CA successful daily fetches
	registeredToday []string       // registrations performed this Step

	revocations map[x509sim.DedupKey]crl.Entry

	comZone *dnssim.Zone
	netZone *dnssim.Zone
}

// NewWorld wires a world from a scenario.
func NewWorld(s Scenario) *World {
	w := &World{
		S:           s,
		rng:         rand.New(rand.NewSource(s.Seed)),
		Registry:    registry.New("com", "net"),
		DNS:         dnssim.NewStore(),
		Dir:         ca.NewDirectory(),
		CAs:         make(map[x509sim.IssuerID]*ca.CA),
		Whois:       whois.NewArchive(),
		Ledger:      crl.NewCoverageLedger(),
		PSL:         psl.Default(),
		domains:     make(map[string]*domainState),
		crlOK:       make(map[string]int),
		revocations: make(map[x509sim.DedupKey]crl.Entry),
		ADNS:        NewScanLog(),
	}
	w.comZone = dnssim.NewZone("com")
	w.netZone = dnssim.NewZone("net")
	w.DNS.AddZone(w.comZone)
	w.DNS.AddZone(w.netZone)
	w.DNS.AddZone(dnssim.NewZone("cloudflare.com"))

	// Temporally sharded CT logs, like production operators run; submissions
	// route by expiry and the pipeline deduplicates across shards.
	firstYear, lastYear := s.Start.Year(), s.End.Year()+3
	w.Logs = ctlog.NewCollection(ctlog.ShardedLogs("nimbus", firstYear, lastYear, false)...)

	validator := ca.ValidatorFunc(w.validateControl)
	for _, p := range w.Dir.All() {
		w.CAs[p.ID] = ca.New(ca.Config{
			Profile:   p,
			Validator: validator,
			Logs:      w.Logs,
			NewKey:    w.mintKey,
		})
	}

	w.CDN = cdn.New(cdn.Config{
		BoatSize:      cruiseBoatSize,
		CruiseCA:      w.CAs[ca.IssuerComodoDV],
		PerDomainCA:   w.CAs[ca.IssuerCloudflareECC],
		PerDomainFrom: CloudflarePerDomainFrom,
		Store:         w.DNS,
	})
	return w
}

func (w *World) mintKey() x509sim.KeyID {
	w.nextKey++
	return x509sim.KeyID(w.nextKey)
}

// validateControl is the CAs' ground-truth DV check: the requesting account
// must currently operate the domain (registrant account, platform, or CDN
// while enrolled).
func (w *World) validateControl(domain, account string, _ simtime.Day) error {
	// The provider controls its own marker/edge namespace outright.
	if account == w.CDN.Account() && dnsname.IsSubdomain(domain, monitor.MarkerSuffix) {
		return nil
	}
	e2ld, err := w.PSL.ETLDPlusOne(domain)
	if err != nil {
		e2ld = domain
	}
	d, ok := w.domains[e2ld]
	if !ok || !d.active {
		return errors.New("domain not operated")
	}
	if account == d.account {
		return nil
	}
	if account == w.CDN.Account() {
		if c, ok := w.CDN.Customer(e2ld); ok && c.Active() {
			return nil
		}
	}
	return fmt.Errorf("account %q does not control %q", account, e2ld)
}

// Today returns the current simulation day.
func (w *World) Today() simtime.Day { return w.today }

// DomainCount returns how many e2LDs have ever existed.
func (w *World) DomainCount() int { return len(w.domains) }

// AllDomains returns every e2LD ever registered, sorted.
func (w *World) AllDomains() []string {
	out := make([]string, 0, len(w.domains))
	for d := range w.domains {
		out = append(out, d)
	}
	sort.Strings(out)
	return out
}

// RevocationEntries returns the revocations gathered by CRL collection,
// sorted deterministically.
func (w *World) RevocationEntries() []crl.Entry {
	out := make([]crl.Entry, 0, len(w.revocations))
	for _, e := range w.revocations {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Issuer != out[j].Issuer {
			return out[i].Issuer < out[j].Issuer
		}
		return out[i].Serial < out[j].Serial
	})
	return out
}

// Run advances the world from Start to End.
func (w *World) Run() {
	for day := w.S.Start; day <= w.S.End; day++ {
		w.Step(day)
	}
}

// Step advances one day: lifecycle ticks, scheduled events, new
// registrations, and the daily collections.
func (w *World) Step(day simtime.Day) {
	w.today = day
	w.registeredToday = w.registeredToday[:0]
	w.Registry.Tick(day)

	if w.S.GoDaddyBreach && day == GoDaddyBreachStart {
		w.triggerGoDaddyBreach(day)
	}

	for e := w.popDue(day); e != nil; e = w.popDue(day) {
		w.handle(e)
	}

	n := w.poisson(w.S.registrationRate(day))
	for i := 0; i < n; i++ {
		w.registerNewDomain(day)
	}

	w.collectWHOIS(day)
	w.collectADNS(day)
	w.collectCRL(day)
}

// poisson draws a Poisson-distributed count with the given mean.
func (w *World) poisson(mean float64) int {
	if mean <= 0 {
		return 0
	}
	// Knuth's algorithm; fine for the small means used here.
	l := math.Exp(-mean)
	k := 0
	p := 1.0
	for {
		p *= w.rng.Float64()
		if p <= l {
			return k
		}
		k++
		if k > 10000 {
			return k
		}
	}
}

func (w *World) handle(e *event) {
	switch e.kind {
	case evDomainExpiry:
		w.onDomainExpiry(e)
	case evReRegister:
		w.onReRegister(e)
	case evRenewAuto:
		w.onRenewAuto(e)
	case evRenewManual:
		w.onRenewManual(e)
	case evCDNDepart:
		w.onCDNDepart(e)
	case evCDNRenew:
		w.onCDNRenew(e)
	case evCompromise:
		w.onCompromise(e)
	case evOtherRevoke:
		w.onOtherRevoke(e)
	}
}

// registerNewDomain creates a fresh e2LD with a new registrant.
func (w *World) registerNewDomain(day simtime.Day) {
	w.nextName++
	tld := "com"
	if w.rng.Float64() < 0.25 {
		tld = "net"
	}
	name := fmt.Sprintf("d%06d.%s", w.nextName, tld)
	w.registerDomain(name, day, 1)
}

// registerDomain performs a (re-)registration cycle for name.
func (w *World) registerDomain(name string, day simtime.Day, generation int) {
	w.nextOwner++
	registrant := fmt.Sprintf("r%06d", w.nextOwner)
	years := 1
	if w.rng.Float64() < 0.2 {
		years = 2
	}
	reg, err := w.Registry.Register(name, registrant, pickRegistrar(w.rng), day, years)
	if err != nil {
		return // not yet released; skip
	}
	d := &domainState{
		name:       name,
		registrant: registrant,
		account:    "acct:" + registrant,
		active:     true,
		intendKeep: true,
		generation: generation,
	}
	w.domains[name] = d
	w.registeredToday = append(w.registeredToday, name)
	w.installSelfDNS(name)
	w.schedule(reg.Expires, evDomainExpiry, name, nil)

	if w.rng.Float64() >= w.S.httpsProb(day) {
		d.hosting = HostNone
		return
	}
	w.chooseHosting(d, day)
}

func pickRegistrar(rng *rand.Rand) string {
	registrars := []string{"GoDaddy", "Namecheap", "Tucows", "Gandi", "NameSilo"}
	return registrars[rng.Intn(len(registrars))]
}

// installSelfDNS points the domain at generic self-hosting infrastructure.
func (w *World) installSelfDNS(name string) {
	zone := w.zoneFor(name)
	if zone == nil {
		return
	}
	w.DNS.Mutate(func() {
		zone.Remove(name, dnssim.TypeNS, "")
		zone.Remove(name, dnssim.TypeA, "")
		_ = zone.Add(dnssim.Record{Name: name, Type: dnssim.TypeNS, TTL: 86400, Data: "ns1.hoster.net"})
		_ = zone.Add(dnssim.Record{Name: name, Type: dnssim.TypeNS, TTL: 86400, Data: "ns2.hoster.net"})
		_ = zone.Add(dnssim.Record{Name: name, Type: dnssim.TypeA, TTL: 300, Data: "198.51.100.7"})
	})
}

func (w *World) zoneFor(name string) *dnssim.Zone {
	switch dnsname.Parent(name) {
	case "com":
		return w.comZone
	case "net":
		return w.netZone
	}
	return nil
}

// chooseHosting picks and provisions an HTTPS setup for a domain.
func (w *World) chooseHosting(d *domainState, day simtime.Day) {
	r := w.rng.Float64()
	switch {
	case r < w.S.cdnProb(day):
		mode := cdn.ModeNS
		hosting := HostCDNNS
		if w.rng.Float64() < 0.3 {
			mode = cdn.ModeCNAME
			hosting = HostCDNCNAME
		}
		if _, err := w.CDN.Enroll(d.name, mode, day); err == nil {
			d.hosting = hosting
			w.scheduleCDNLifecycle(d.name, day)
			return
		}
		fallthrough
	case r < w.S.cdnProb(day)+platformShare:
		d.hosting = HostPlatform
		d.issuer = ca.IssuerCPanel
		d.account = "platform:cpanel"
		w.issueFor(d, day)
	default:
		d.hosting = HostSelf
		d.issuer = w.pickSelfCA(day)
		w.issueFor(d, day)
	}
}

// pickSelfCA chooses a CA for a self-hosted domain, weighted by profile
// share among CAs active at the day; automated CAs only exist post-launch.
func (w *World) pickSelfCA(day simtime.Day) x509sim.IssuerID {
	type cand struct {
		id x509sim.IssuerID
		p  float64
	}
	var cands []cand
	total := 0.0
	for _, p := range w.Dir.All() {
		if p.ManagedTLS || day < p.ActiveFrom {
			continue
		}
		cands = append(cands, cand{p.ID, p.Share})
		total += p.Share
	}
	r := w.rng.Float64() * total
	for _, c := range cands {
		if r < c.p {
			return c.id
		}
		r -= c.p
	}
	return cands[len(cands)-1].id
}

// issueFor obtains a certificate for a domain from its chosen CA and
// schedules renewal and revocation events.
func (w *World) issueFor(d *domainState, day simtime.Day) {
	caInst := w.CAs[d.issuer]
	if caInst == nil {
		return
	}
	if day < caInst.Profile().ActiveFrom {
		// Chosen CA not live yet (platform CAs early on): fall back.
		d.issuer = w.pickSelfCA(day)
		caInst = w.CAs[d.issuer]
	}
	names := []string{d.name, "www." + d.name}
	cert, err := caInst.Issue(ca.Request{Account: d.account, Names: names}, day)
	if err != nil {
		return
	}
	w.afterIssue(d, cert, day)
}

// afterIssue schedules renewal, compromise, and revocation events for a
// fresh certificate.
func (w *World) afterIssue(d *domainState, cert *x509sim.Certificate, day simtime.Day) {
	prof, _ := w.Dir.Profile(cert.Issuer)
	if prof.Automated {
		w.schedule(cert.NotAfter-renewBeforeDays, evRenewAuto, d.name, cert)
	} else {
		w.schedule(cert.NotAfter+1, evRenewManual, d.name, cert)
	}
	w.maybeScheduleCompromise(cert, day)
	w.maybeScheduleOtherRevocation(cert, day)
}

func (w *World) maybeScheduleCompromise(cert *x509sim.Certificate, day simtime.Day) {
	p := w.S.CompromiseProbShort
	if cert.LifetimeDays() > 180 {
		p = w.S.CompromiseProbLong
	}
	if w.rng.Float64() >= p {
		return
	}
	delay := int(w.rng.ExpFloat64() * compromiseMeanDelay)
	if delay > compromiseMaxDelay {
		delay = compromiseMaxDelay
	}
	w.schedule(day+simtime.Day(delay), evCompromise, "", cert)
}

func (w *World) maybeScheduleOtherRevocation(cert *x509sim.Certificate, day simtime.Day) {
	if w.rng.Float64() >= otherRevocationProb {
		return
	}
	at := day + simtime.Day(w.rng.Intn(cert.LifetimeDays()))
	w.schedule(at, evOtherRevoke, "", cert)
}

// scheduleCDNLifecycle schedules churn and renewal sweeps for a CDN customer.
func (w *World) scheduleCDNLifecycle(name string, day simtime.Day) {
	years := w.rng.ExpFloat64() / cdnAnnualChurn
	w.schedule(day+simtime.Day(years*365), evCDNDepart, name, nil)
	// Cloudflare reissues well before expiry (~120-day cadence on 365-day
	// certs), stacking overlapping validity — which lengthens managed-TLS
	// staleness (Figure 6).
	w.schedule(day+120, evCDNRenew, name, nil)
}

func (w *World) onDomainExpiry(e *event) {
	d := w.domains[e.domain]
	if d == nil || !d.active {
		return
	}
	reg, status, ok := w.Registry.Lookup(e.domain)
	if !ok {
		return
	}
	if status == registry.StatusActive && reg.Expires > e.day {
		// Already renewed (e.g. pre-release sale); reschedule.
		w.schedule(reg.Expires, evDomainExpiry, e.domain, nil)
		return
	}
	if w.rng.Float64() < w.S.DomainRenewProb {
		if err := w.Registry.Renew(e.domain, e.day, 1); err == nil {
			reg, _, _ := w.Registry.Lookup(e.domain)
			w.schedule(reg.Expires, evDomainExpiry, e.domain, nil)
			return
		}
	}
	// Lapse: the owner walks away. Managed TLS stays enrolled until DNS
	// dies; automation keeps renewing until validation fails.
	d.intendKeep = false
	d.active = false
	releaseDay := reg.Expires + registry.GraceDays + registry.RedemptionDays + registry.PendingDeleteDays + 1
	if w.rng.Float64() < w.S.ReRegistrationProb {
		delay := simtime.Day(1)
		if w.rng.Float64() >= dropCatchProb {
			delay = 1 + simtime.Day(w.rng.Intn(reRegistrationMaxDelay))
		}
		w.schedule(releaseDay+delay, evReRegister, e.domain, nil)
	}
	// The departing owner tears down hosting at release.
	if c, ok := w.CDN.Customer(e.domain); ok && c.Active() {
		_ = w.CDN.Depart(e.domain, releaseDay)
	}
}

func (w *World) onReRegister(e *event) {
	_, status, _ := w.Registry.Lookup(e.domain)
	if status != registry.StatusAvailable {
		return
	}
	old := w.domains[e.domain]
	gen := 1
	if old != nil {
		gen = old.generation + 1
	}
	w.registerDomain(e.domain, e.day, gen)
}

func (w *World) onRenewAuto(e *event) {
	d := w.domains[e.domain]
	if d == nil {
		return
	}
	caInst := w.CAs[e.cert.Issuer]
	if caInst == nil {
		return
	}
	// Unattended automation first: relies purely on validation reuse, which
	// is how §7.1's "automatic issuance" extends broken name-to-key
	// mappings after an owner walks away.
	cert, err := caInst.Issue(ca.Request{
		Account:        accountForCert(d, e.cert),
		Names:          e.cert.Names,
		Key:            e.cert.Key,
		SkipValidation: true,
	}, e.day)
	if err != nil {
		// Reuse window expired: automation re-validates, succeeding only if
		// the account still controls the domain.
		cert, err = caInst.Issue(ca.Request{
			Account: accountForCert(d, e.cert),
			Names:   e.cert.Names,
			Key:     e.cert.Key,
		}, e.day)
	}
	if err != nil {
		return // automation finally fails; the chain dies
	}
	w.afterIssue(d, cert, e.day)
}

// accountForCert returns the account that has been driving this
// certificate chain. The chain keeps its original operator even if the
// domain changed hands (the new owner starts a separate chain).
func accountForCert(d *domainState, cert *x509sim.Certificate) string {
	if d.hosting == HostPlatform && cert.Issuer == ca.IssuerCPanel {
		return "platform:cpanel"
	}
	return d.account
}

func (w *World) onRenewManual(e *event) {
	d := w.domains[e.domain]
	if d == nil || !d.active || !d.intendKeep {
		return // owners intending to drop the domain stop issuing (§7.1)
	}
	if w.rng.Float64() >= certManualRenewProb {
		return
	}
	caInst := w.CAs[e.cert.Issuer]
	if caInst == nil {
		return
	}
	cert, err := caInst.Issue(ca.Request{Account: d.account, Names: e.cert.Names, Key: e.cert.Key}, e.day)
	if err != nil {
		return
	}
	w.afterIssue(d, cert, e.day)
}

func (w *World) onCDNDepart(e *event) {
	c, ok := w.CDN.Customer(e.domain)
	if !ok || !c.Active() {
		return
	}
	d := w.domains[e.domain]
	if d == nil || !d.active {
		return // lapse already handled departure
	}
	if err := w.CDN.Depart(e.domain, e.day); err != nil {
		return
	}
	// Migrate to self-hosting with a fresh certificate chain.
	d.hosting = HostSelf
	d.issuer = w.pickSelfCA(e.day)
	w.installSelfDNS(e.domain)
	w.issueFor(d, e.day)
}

func (w *World) onCDNRenew(e *event) {
	c, ok := w.CDN.Customer(e.domain)
	if !ok || !c.Active() {
		return
	}
	if err := w.CDN.Renew(e.domain, e.day, 120); err == nil {
		w.schedule(e.day+120, evCDNRenew, e.domain, nil)
	}
}

func (w *World) onCompromise(e *event) {
	if e.cert.NotAfter < e.day {
		return // expired before discovery; nothing to revoke
	}
	if caInst := w.CAs[e.cert.Issuer]; caInst != nil {
		caInst.Revoke(e.cert, e.day, crl.KeyCompromise)
	}
}

func (w *World) onOtherRevoke(e *event) {
	if e.cert.NotAfter < e.day {
		return
	}
	reasons := []crl.Reason{
		crl.Superseded, crl.Superseded, crl.Superseded,
		crl.CessationOfOperation, crl.CessationOfOperation,
		crl.AffiliationChanged, crl.PrivilegeWithdrawn, crl.Unspecified,
	}
	reason := reasons[w.rng.Intn(len(reasons))]
	if caInst := w.CAs[e.cert.Issuer]; caInst != nil {
		caInst.Revoke(e.cert, e.day, reason)
	}
}

// triggerGoDaddyBreach mass-revokes a share of currently-valid GoDaddy
// certificates for key compromise, spread over the breach window.
func (w *World) triggerGoDaddyBreach(day simtime.Day) {
	gd := w.CAs[ca.IssuerGoDaddy]
	if gd == nil {
		return
	}
	certs, _ := w.Logs.Dedup()
	window := int(GoDaddyBreachEnd - GoDaddyBreachStart)
	for _, c := range certs {
		if c.Issuer != ca.IssuerGoDaddy || !c.ValidOn(day) {
			continue
		}
		// The breach exposed keys on the managed-WordPress issuance path:
		// recently-issued certificates (which is why Figure 8 still shows
		// ~99% of key compromises within 90 days of issuance).
		if day-c.NotBefore > 90 {
			continue
		}
		if w.rng.Float64() >= breachShare {
			continue
		}
		at := day + simtime.Day(w.rng.Intn(window+1))
		w.schedule(at, evCompromise, "", c)
	}
}

// Daily collections.

func (w *World) collectWHOIS(day simtime.Day) {
	if !w.S.WHOISWindow.Contains(day) {
		return
	}
	if day == w.S.WHOISWindow.Start {
		// First collection day: observe every currently-registered domain.
		for _, name := range w.Registry.ActiveDomains() {
			if reg, _, ok := w.Registry.Lookup(name); ok {
				w.Whois.Observe(name, reg.Created)
			}
		}
		return
	}
	// Subsequent days: observing every domain daily is equivalent to
	// observing on registration, since Archive deduplicates creation dates.
	// Registrations were observed when they happened if inside the window:
	for _, name := range w.registeredToday {
		if reg, _, ok := w.Registry.Lookup(name); ok {
			w.Whois.Observe(name, reg.Created)
		}
	}
}

func (w *World) collectADNS(day simtime.Day) {
	if !w.S.ADNSWindow.Contains(day) {
		return
	}
	w.ADNS.Scan(day, w)
}

func (w *World) collectCRL(day simtime.Day) {
	if !w.S.CRLWindow.Contains(day) {
		return
	}
	for _, p := range w.Dir.All() {
		ok := w.rng.Float64() >= p.CRLFailRate
		w.Ledger.Record(p.Name, ok)
		if ok {
			w.crlOK[p.Name]++
		}
	}
	if day == w.S.CRLWindow.End-1 {
		w.finalizeCRLCollection(day)
	}
}

// finalizeCRLCollection merges the (cumulative) CRLs of every CA that was
// successfully fetched at least once during the window.
func (w *World) finalizeCRLCollection(day simtime.Day) {
	w.crlFetched = true
	for _, p := range w.Dir.All() {
		if w.crlOK[p.Name] == 0 {
			continue // never fetched: invisible to the pipeline
		}
		list := w.CAs[p.ID].Authority().Snapshot(day)
		for _, e := range list.Entries {
			key := e.Key()
			if prev, ok := w.revocations[key]; !ok || e.RevokedAt < prev.RevokedAt {
				w.revocations[key] = e
			}
		}
	}
}
