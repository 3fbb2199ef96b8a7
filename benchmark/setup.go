package main

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"stalecert/internal/x509sim"
)

// clients is how many goroutines, and keep-alive connections, drive the
// fleet. The box has two cores, shared with the daemons; more clients would
// measure the scheduler.
const clients = 2

// newLoadClient returns an HTTP client limited to conns keep-alive
// connections per host (idle connections are not capped across hosts, so a
// client that alternates between replicas keeps one open to each).
func newLoadClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 15 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}
}

// fetch GETs url and returns the status and body.
func fetch(ctx context.Context, hc *http.Client, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// addChain submits one certificate to the log the way any RFC 6962 client
// does and reports whether the log acknowledged it.
func addChain(ctx context.Context, hc *http.Client, logURL string, cert *x509sim.Certificate) error {
	body := `{"chain":["` + base64.StdEncoding.EncodeToString(cert.Marshal()) + `"]}`
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, logURL+"/ct/v1/add-chain", strings.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("add-chain: status %d", resp.StatusCode)
	}
	return nil
}

// topology says which daemons a workload needs.
type topology struct {
	Evidence bool // whoisd, dnsscand, crld, and staleapid wired to them
	Gateway  bool // 2 slices × 2 replicas behind stalegw
}

// deployment is one ready fleet.
type deployment struct {
	fleet    *fleet
	ctlog    *daemon
	replicas [][]*daemon // [slice][replica]; one slice of one replica when unsharded
	gw       *daemon
	whois    *daemon
	dns      *daemon
	crl      *daemon

	SetupTime time.Duration // first spawn → everything ready, overlay ingested
	LogSize   uint64
}

func (d *deployment) logURL() string { return "http://" + d.ctlog.Addr }

// target is the base URL read traffic goes to.
func (d *deployment) target() string {
	if d.gw != nil {
		return "http://" + d.gw.Addr
	}
	return "http://" + d.replicas[0][0].Addr
}

// route sends every path to the target.
func (d *deployment) route() func(string) string {
	t := d.target()
	return func(string) string { return t }
}

func (d *deployment) apis() []*daemon {
	var out []*daemon
	for _, s := range d.replicas {
		out = append(out, s...)
	}
	return out
}

// setUp spawns the topology, seeds it and returns once every daemon reports
// ready and every replica has ingested the whole log. The phases run in a
// fixed order so that setup_s times the same work on every run:
// log and evidence daemons, replicas catching up on the bulk, overlay
// submission while they tail, gateway.
func setUp(ctx context.Context, binDir, dir string, seed uint64, topo topology, ov *overlay) (dep *deployment, err error) {
	f, err := newFleet(dir)
	if err != nil {
		return nil, err
	}
	bin := func(kind string) string { return filepath.Join(binDir, kind) }
	defer func() {
		if err != nil {
			err = fmt.Errorf("%w\n%s", err, f.stderrTails(15))
			f.stop()
		}
	}()
	const readyWithin = 60 * time.Second
	began := time.Now()
	dep = &deployment{fleet: f}

	dep.ctlog, err = f.spawn("ctlogd", bin("ctlogd"), "tcp",
		"-seed-entries", strconv.Itoa(bulkEntries), "-seed-domains", strconv.Itoa(bulkDomains))
	if err != nil {
		return nil, err
	}
	first := []*daemon{dep.ctlog}
	if topo.Evidence {
		zonePath := filepath.Join(dir, "com.zone")
		if err = os.WriteFile(zonePath, []byte(ov.Zone), 0o644); err != nil {
			return nil, err
		}
		if dep.whois, err = f.spawn("whoisd", bin("whoisd"), "tcp", "-seed-domains", strconv.Itoa(overlayDomains)); err != nil {
			return nil, err
		}
		if dep.dns, err = f.spawn("dnsscand", bin("dnsscand"), "udp", "-serve", "-zonefile", zonePath, "-apex", "com"); err != nil {
			return nil, err
		}
		// -fail-rate 0: crld's default simulates scrape protection, and a
		// benchmark workload must be one on which no operation fails.
		if dep.crl, err = f.spawn("crld", bin("crld"), "tcp", "-seed-revocations", strconv.Itoa(revocations),
			"-fail-rate", "0", "-seed", strconv.FormatUint(seed, 10)); err != nil {
			return nil, err
		}
		first = append(first, dep.whois, dep.dns, dep.crl)
	}
	for _, d := range first {
		if err = d.waitReady(ctx, readyWithin); err != nil {
			return nil, err
		}
	}

	slices, perSlice := 1, 1
	if topo.Gateway {
		slices, perSlice = 2, 2
	}
	for s := 0; s < slices; s++ {
		var group []*daemon
		for r := 0; r < perSlice; r++ {
			name := fmt.Sprintf("staleapid-%d-%d", s, r)
			args := []string{"-store", filepath.Join(dir, name), "-log", dep.logURL(), "-interval", "200ms"}
			if topo.Evidence {
				args = append(args, "-whois", dep.whois.Addr, "-dns", dep.dns.Addr, "-crl", "http://"+dep.crl.Addr)
			}
			if topo.Gateway {
				args = append(args, "-shard", fmt.Sprintf("%d/%d", s, slices))
			}
			d, serr := f.spawn(name, bin("staleapid"), "tcp", args...)
			if serr != nil {
				return nil, serr
			}
			group = append(group, d)
		}
		dep.replicas = append(dep.replicas, group)
	}
	for _, d := range dep.apis() {
		if err = d.waitReady(ctx, readyWithin); err != nil {
			return nil, err
		}
	}

	if err = postAll(ctx, dep.logURL(), ov.Certs); err != nil {
		return nil, err
	}
	if dep.LogSize, err = treeSize(ctx, dep.logURL()); err != nil {
		return nil, err
	}
	if err = dep.waitIngested(ctx, dep.LogSize, readyWithin); err != nil {
		return nil, err
	}

	if topo.Gateway {
		var groups []string
		for _, g := range dep.replicas {
			var urls []string
			for _, d := range g {
				urls = append(urls, "http://"+d.Addr)
			}
			groups = append(groups, strings.Join(urls, "|"))
		}
		// -cache-ttl 1ms: with its default 5 s response cache the gateway
		// answers 97% of the hot keys itself and the routed path this
		// workload exists to measure carries the other 3%.
		if dep.gw, err = f.spawn("stalegw", bin("stalegw"), "tcp",
			"-shards", strings.Join(groups, ","), "-hedge-after", "30ms", "-cache-ttl", "1ms"); err != nil {
			return nil, err
		}
		if err = dep.gw.waitReady(ctx, readyWithin); err != nil {
			return nil, err
		}
	}
	dep.SetupTime = time.Since(began)
	return dep, nil
}

// postAll submits certs to the log from `clients` closed-loop goroutines and
// fails on the first submission the log does not acknowledge.
func postAll(ctx context.Context, logURL string, certs []*x509sim.Certificate) error {
	hc := newLoadClient(clients)
	defer hc.CloseIdleConnections()
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(certs) || ctx.Err() != nil {
					return
				}
				if err := addChain(ctx, hc, logURL, certs[i]); err != nil {
					errs[w] = fmt.Errorf("overlay cert %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// treeSize asks the log for its current size.
func treeSize(ctx context.Context, logURL string) (uint64, error) {
	code, body, err := fetch(ctx, scrapeClient, logURL+"/ct/v1/get-sth")
	if err != nil {
		return 0, err
	}
	var sth struct {
		TreeSize uint64 `json:"tree_size"`
	}
	if code != http.StatusOK || json.Unmarshal(body, &sth) != nil {
		return 0, fmt.Errorf("get-sth: status %d body %.80q", code, body)
	}
	return sth.TreeSize, nil
}

// waitIngested blocks until every replica's ingest checkpoint has passed
// size: each tails the whole log, sharded or not.
func (d *deployment) waitIngested(ctx context.Context, size uint64, within time.Duration) error {
	deadline := time.Now().Add(within)
	for _, api := range d.apis() {
		for {
			m, err := api.scrape(ctx)
			if err == nil && uint64(m["certstore_checkpoint_next_index"]) >= size {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%s did not ingest %d entries within %s (last scrape error: %v)", api.Name, size, within, err)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-api.waited:
				return fmt.Errorf("%s exited while ingesting", api.Name)
			case <-time.After(10 * time.Millisecond):
			}
		}
	}
	return nil
}

// tearDown stops the fleet and removes its directory.
func (d *deployment) tearDown() {
	d.fleet.stop()
	_ = os.RemoveAll(d.fleet.dir) // scratch inside the checkout; a leftover is harmless
}
