package fleettest

import (
	"fmt"
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
	"testing"
	"time"
)

// built is the directory of compiled cmd/ binaries, shared by every test of
// the process that uses one and removed when the last of them ends.
var built struct {
	sync.Mutex
	dir   string
	users int
}

// Bin returns the path of a cmd/ binary — a daemon, or a CLI a test runs
// against the fleet (stalestat, stalewatch). The first use builds them all.
func Bin(t testing.TB, name string) string {
	t.Helper()
	built.Lock()
	defer built.Unlock()
	if built.users == 0 {
		dir, err := os.MkdirTemp("", "fleettest-bin-")
		if err != nil {
			t.Fatal(err)
		}
		build := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "stalecert/cmd/ctlogd", "stalecert/cmd/crld",
			"stalecert/cmd/staleapid", "stalecert/cmd/stalegw", "stalecert/cmd/obsagg", "stalecert/cmd/stalestat", "stalecert/cmd/stalewatch")
		if out, err := build.CombinedOutput(); err != nil {
			os.RemoveAll(dir)
			t.Fatalf("go build cmd/...: %v\n%s", err, out)
		}
		built.dir = dir
	}
	built.users++
	t.Cleanup(func() {
		built.Lock()
		defer built.Unlock()
		if built.users--; built.users == 0 {
			os.RemoveAll(built.dir)
		}
	})
	return filepath.Join(built.dir, name)
}

// Ports come from below the kernel's ephemeral range: one net.Listen(":0")
// returned is in that range, and between its release and the daemon binding
// it the kernel may hand it to an outbound connection of the fleet.
const portFloor, portCeil = 12000, 32000

var portCursor atomic.Int32

// freeAddr returns a loopback address nothing listens on, never twice.
func freeAddr(t testing.TB) string {
	for tries := 0; tries < portCeil-portFloor; tries++ {
		p := portFloor + (os.Getpid()*64+int(portCursor.Add(1)))%(portCeil-portFloor)
		addr := net.JoinHostPort("127.0.0.1", strconv.Itoa(p))
		if l, err := net.Listen("tcp", addr); err == nil {
			l.Close()
			return addr
		}
	}
	t.Fatal("no free loopback port below the ephemeral range")
	return ""
}

// Spawn starts the binary the name stands for (staleapid-1-0: staleapid)
// with args plus a fresh -addr and -debug-addr, and returns once its /readyz
// answers 200. The child dies with the test process or the test; a failed
// test logs its stderr tail.
func Spawn(t testing.TB, name string, args ...string) *Member {
	t.Helper()
	addr, debug := freeAddr(t), freeAddr(t)
	m := &Member{Name: name, URL: "http://" + addr, Debug: "http://" + debug, t: t, exited: make(chan struct{})}
	errLog := filepath.Join(t.TempDir(), name+".stderr")
	logf, err := os.Create(errLog)
	if err != nil {
		t.Fatal(err)
	}
	defer logf.Close() // the child holds its own descriptor
	bin, _, _ := strings.Cut(name, "-")
	m.cmd = exec.Command(Bin(t, bin), append(args, "-addr", addr, "-debug-addr", debug)...)
	m.cmd.Stdout, m.cmd.Stderr = logf, logf
	m.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := m.cmd.Start(); err != nil {
		t.Fatalf("start %s: %v", name, err)
	}
	go func() {
		_ = m.cmd.Wait() // whoever notices the daemon gone reports it
		close(m.exited)
	}()
	t.Cleanup(func() {
		_ = m.cmd.Process.Signal(syscall.SIGTERM) // the daemons shut down gracefully
		select {
		case <-m.exited:
		case <-time.After(3 * time.Second):
			m.Kill()
		}
		if raw, err := os.ReadFile(errLog); t.Failed() && err == nil {
			// Without the access log, which is most of it and explains nothing.
			lines := slices.DeleteFunc(strings.Split(strings.TrimSpace(string(raw)), "\n"),
				func(l string) bool { return strings.Contains(l, `msg="http request"`) })
			t.Logf("--- %s stderr tail ---\n%s", name, strings.Join(lines[max(0, len(lines)-40):], "\n"))
		}
	})
	Until(t, func() error {
		select {
		case <-m.exited:
			t.Fatalf("%s exited before it was ready", name)
		default:
		}
		resp, err := http.Get(m.Debug + "/readyz")
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s /readyz: status %d", name, resp.StatusCode)
		}
		return nil
	})
	return m
}

// StartBinaries spawns the fleet as daemons — these flags are the wiring
// under test — keeping every trace, with an obsagg over all of them, and
// returns once each /readyz passes: replicas caught up and holding a CRL
// snapshot, the slice quorum met, obsagg through its first scrape round.
// With Spec.ChaosSeed the replicas' -log and -crl name the fault proxies.
func StartBinaries(t testing.TB, spec Spec) *Fleet {
	t.Helper()
	if len(spec.Revoked) > 0 {
		t.Fatal("the crld binary seeds its own revocations: StartBinaries cannot host Spec.Revoked")
	}
	f := &Fleet{spec: spec, t: t}
	common := []string{"-now", Day.String(), "-trace-sample", "1"}
	f.Log = Spawn(t, "ctlogd", slices.Concat(common, []string{"-name", spec.Name + "-log"})...)
	// -fail-rate 0: crld's default scrape protection makes a first load luck.
	f.CRL = Spawn(t, "crld", slices.Concat(common, []string{"-fail-rate", "0"})...)
	groups := f.seedAndServe(func(name string, slice int) *Member {
		args := slices.Concat(common, []string{"-store", t.TempDir(), "-log", f.logVia,
			"-interval", "100ms", "-crl", f.crlVia, "-cache-ttl", "1s"})
		if slice >= 0 {
			args = append(args, "-shard", fmt.Sprintf("%d/%d", slice, spec.Slices))
		}
		return Spawn(t, name, args...)
	})
	if spec.Slices > 0 {
		shards := make([]string, len(groups))
		for s, urls := range groups {
			shards[s] = strings.Join(urls, "|")
		}
		f.Gateway = Spawn(t, "stalegw", "-trace-sample", "1", "-shards", strings.Join(shards, ","),
			"-hedge-after", spec.HedgeAfter.String(), "-probe-interval", "200ms", "-cache-ttl", GatewayCacheTTL.String())
	}
	var targets []string
	for _, m := range f.Members() {
		targets = append(targets, m.Name+"="+m.Debug)
	}
	f.Agg = Spawn(t, "obsagg", "-targets", strings.Join(targets, ","), "-scrape-interval", "250ms")
	return f
}
