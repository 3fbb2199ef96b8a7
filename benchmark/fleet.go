package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// daemonNames are the binaries the harness builds and spawns. They are
// configured through their flags and driven over their sockets only, so a
// change that restructures their internals is measured by this benchmark
// unchanged.
var daemonNames = []string{"ctlogd", "whoisd", "dnsscand", "crld", "staleapid", "stalegw"}

// buildDaemons compiles the daemons from the checkout's source into binDir.
// It runs once per invocation and is never part of setup_s.
func buildDaemons(ctx context.Context, root, binDir string) error {
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return err
	}
	args := []string{"build", "-o", binDir + string(os.PathSeparator)}
	for _, n := range daemonNames {
		args = append(args, "./cmd/"+n)
	}
	cmd := exec.CommandContext(ctx, "go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build ./cmd/...: %w\n%s", err, out)
	}
	return nil
}

// daemon is one spawned child.
type daemon struct {
	Name   string // unique within the fleet, e.g. staleapid-0-1
	Addr   string // service listener (host:port)
	Debug  string // debug listener: /metrics, /readyz
	cmd    *exec.Cmd
	errLog string // file the child's stderr is appended to
	waited chan struct{}
}

func (d *daemon) PID() int { return d.cmd.Process.Pid }

// fleet owns every child of one set-up. Children write their logs straight
// to files in dir, as a deployed daemon writes to its journal; the harness
// reads them back only to explain a failure.
type fleet struct {
	dir     string
	mu      sync.Mutex
	daemons []*daemon
}

// liveFleets lets the signal handler stop every child by PID.
var liveFleets struct {
	sync.Mutex
	m map[*fleet]bool
}

func newFleet(dir string) (*fleet, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	f := &fleet{dir: dir}
	liveFleets.Lock()
	if liveFleets.m == nil {
		liveFleets.m = make(map[*fleet]bool)
	}
	liveFleets.m[f] = true
	liveFleets.Unlock()
	return f, nil
}

// Ports are handed out from below the kernel's ephemeral range. A port that
// net.Listen(":0") returns comes from that range, and between releasing it
// and the daemon binding it the kernel may give it to any outbound
// connection of the fleet — which it did, about once in five gateway
// set-ups. A port below the range can only be taken by another listener,
// and binding it here first shows that none has.
const (
	portFloor = 12000
	portCeil  = 32000 // the default ephemeral range starts at 32768
)

var portCursor atomic.Int32

// freeAddr returns a loopback address on which nothing listens.
func freeAddr(network string) (string, error) {
	portCursor.CompareAndSwap(0, int32(portFloor+os.Getpid()*64%(portCeil-portFloor)))
	for tries := 0; tries < portCeil-portFloor; tries++ {
		p := int(portCursor.Add(1))
		if p >= portCeil {
			portCursor.Store(portFloor)
			continue
		}
		addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(p))
		if network == "udp" {
			c, err := net.ListenPacket("udp", addr)
			if err != nil {
				continue
			}
			c.Close()
			return addr, nil
		}
		l, err := net.Listen("tcp", addr)
		if err != nil {
			continue
		}
		l.Close()
		return addr, nil
	}
	return "", errors.New("no free loopback port below the ephemeral range")
}

// spawn starts the binary at bin as one daemon on fresh ports. network is
// the service listener's kind; the debug listener is always TCP.
func (f *fleet) spawn(name, bin, network string, args ...string) (*daemon, error) {
	addr, err := freeAddr(network)
	if err != nil {
		return nil, err
	}
	debug, err := freeAddr("tcp")
	if err != nil {
		return nil, err
	}
	d := &daemon{Name: name, Addr: addr, Debug: debug,
		errLog: filepath.Join(f.dir, name+".stderr"), waited: make(chan struct{})}
	logf, err := os.Create(d.errLog)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	d.cmd = exec.Command(bin, slices.Concat(args, []string{"-addr", addr, "-debug-addr", debug})...)
	d.cmd.Stderr = logf
	d.cmd.Stdout = logf
	// Should the harness itself be killed outright, no child outlives it.
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		_ = d.cmd.Wait() // exit status is reported by whoever noticed the daemon gone
		close(d.waited)
	}()
	f.mu.Lock()
	f.daemons = append(f.daemons, d)
	f.mu.Unlock()
	return d, nil
}

func (f *fleet) all() []*daemon {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*daemon(nil), f.daemons...)
}

// stop terminates every child by PID and waits for each to exit: SIGTERM
// first (the daemons shut down gracefully), SIGKILL for any that outlives
// the grace period.
func (f *fleet) stop() {
	ds := f.all()
	for _, d := range ds {
		_ = d.cmd.Process.Signal(syscall.SIGTERM) // already-exited children error here
	}
	grace := time.After(3 * time.Second)
	for _, d := range ds {
		select {
		case <-d.waited:
		case <-grace:
			_ = d.cmd.Process.Kill()
			<-d.waited
		}
	}
	liveFleets.Lock()
	delete(liveFleets.m, f)
	liveFleets.Unlock()
}

// stopAllFleets is the signal path: stop whatever is running.
func stopAllFleets() {
	liveFleets.Lock()
	var fs []*fleet
	for f := range liveFleets.m {
		fs = append(fs, f)
	}
	liveFleets.Unlock()
	for _, f := range fs {
		f.stop()
	}
}

// stderrTails renders the last lines of every child's log, for a failure
// report.
func (f *fleet) stderrTails(lines int) string {
	var b strings.Builder
	for _, d := range f.all() {
		raw, err := os.ReadFile(d.errLog)
		if err != nil {
			continue
		}
		all := strings.Split(strings.TrimRight(string(raw), "\n"), "\n")
		if len(all) > lines {
			all = all[len(all)-lines:]
		}
		fmt.Fprintf(&b, "--- %s (pid %d) stderr tail ---\n%s\n", d.Name, d.PID(), strings.Join(all, "\n"))
	}
	return b.String()
}

// scrapeClient talks to debug listeners; it is separate from the load
// clients so that a scrape never takes one of their two connections.
var scrapeClient = &http.Client{Timeout: 10 * time.Second}

// waitReady polls the daemon's /readyz until it answers 200, the daemon
// exits, or the deadline passes.
func (d *daemon) waitReady(ctx context.Context, deadline time.Duration) error {
	url := "http://" + d.Debug + "/readyz"
	timeout := time.After(deadline)
	for {
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
		if resp, err := scrapeClient.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-d.waited:
			return fmt.Errorf("%s exited before it was ready", d.Name)
		case <-timeout:
			return fmt.Errorf("%s not ready within %s", d.Name, deadline)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(5 * time.Millisecond):
		}
	}
}

// metrics is one /metrics scrape: series name with its label set, exactly as
// exposed, to value. The Prometheus text format is the daemons' public
// surface, so it is parsed here rather than through internal/obs.
type metrics map[string]float64

func parseMetrics(r io.Reader) (metrics, error) {
	m := make(metrics)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		// A bucket line may carry an exemplar after " # "; the value is the
		// last field before it. Label values hold spaces and braces (route
		// patterns), so the split is at the last space, not the first.
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i]
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		m[name] = v
	}
	return m, sc.Err()
}

func (d *daemon) scrape(ctx context.Context) (metrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+d.Debug+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := scrapeClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scrape %s: %w", d.Name, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s: status %d", d.Name, resp.StatusCode)
	}
	return parseMetrics(resp.Body)
}

// sum adds every series of the family whose label set contains all of the
// given `key="value"` fragments.
func (m metrics) sum(family string, labels ...string) float64 {
	total := 0.0
	for k, v := range m {
		name, set, _ := strings.Cut(k, "{")
		if name != family {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(set, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// procStat is what /proc/<pid> says about a child: CPU time consumed and
// peak resident set.
type procStat struct {
	CPU   time.Duration
	HWMkB float64
}

// clockTick is USER_HZ; Linux fixes it at 100 for every architecture Go
// supports.
const clockTick = 100

func readProcStat(pid int) (procStat, error) {
	var ps procStat
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	fields := strings.Fields(string(raw[i+1:]))
	if i < 0 || len(fields) < 13 {
		return ps, errors.New("short /proc stat line")
	}
	ut, _ := strconv.ParseInt(fields[11], 10, 64)
	st, _ := strconv.ParseInt(fields[12], 10, 64)
	ps.CPU = time.Duration(ut+st) * time.Second / clockTick
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				ps.HWMkB, _ = strconv.ParseFloat(f[0], 64)
			}
		}
	}
	return ps, nil
}
