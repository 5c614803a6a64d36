package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one chatvisd child process with its own fresh data, out,
// store and WAL directories, listening on a loopback port.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:<port>
	dir  string
	log  *os.File
	done chan struct{} // closed when the process has been reaped
}

// launchTimeout bounds launch → /healthz ready.
const launchTimeout = 30 * time.Second

// startDaemon launches chatvisd with default flags apart from the
// listen address and directories, and waits for /healthz.
func startDaemon(ctx context.Context, bin, dir string) (*daemon, error) {
	for _, sub := range []string{"data", "out", "store", "wal"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("daemon dirs: %w", err)
		}
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(dir, "chatvisd.log"))
	if err != nil {
		return nil, fmt.Errorf("daemon log: %w", err)
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin,
		"-addr", addr,
		"-data", filepath.Join(dir, "data"),
		"-out", filepath.Join(dir, "out"),
		"-store", filepath.Join(dir, "store"),
		"-wal-dir", filepath.Join(dir, "wal"),
		"-profiles-path", filepath.Join(dir, "profiles.json"))
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = logf, logf
	// The daemon dies with the benchmark even when the benchmark is
	// killed before its own cleanup runs.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting chatvisd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, dir: dir, log: logf, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(d.done)
	}()
	running.add(d)
	if err := d.waitReady(ctx); err != nil {
		d.stop()
		return nil, fmt.Errorf("%w\n%s", err, d.logTail())
	}
	return d, nil
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, fmt.Errorf("picking a loopback port: %w", err)
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

func (d *daemon) waitReady(ctx context.Context) error {
	deadline := time.Now().Add(launchTimeout)
	hc := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		select {
		case <-d.done:
			return fmt.Errorf("chatvisd exited during start-up")
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("chatvisd not ready after %v", launchTimeout)
}

// stop kills the daemon and waits until it has been reaped. The run's
// state is thrown away, so there is no drain.
func (d *daemon) stop() {
	if d == nil {
		return
	}
	_ = d.cmd.Process.Kill()
	<-d.done
	d.log.Close()
	running.remove(d)
}

func (d *daemon) logTail() string {
	b, err := os.ReadFile(filepath.Join(d.dir, "chatvisd.log"))
	if err != nil {
		return ""
	}
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}

// procStats is the daemon's resource use read from /proc/<pid>.
type procStats struct {
	cpu     time.Duration // user + system, all threads
	vmHWMKB int64         // peak resident set
}

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat;
// Linux fixes it at 100 for every architecture the daemon runs on.
const clockTick = 10 * time.Millisecond

func (d *daemon) stats() (procStats, error) {
	pid := d.cmd.Process.Pid
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return procStats{}, fmt.Errorf("reading daemon stat: %w", err)
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(raw)
	fields := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(fields) < 13 {
		return procStats{}, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseInt(fields[11], 10, 64)
	stime, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procStats{}, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	ps := procStats{cpu: time.Duration(utime+stime) * clockTick}
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return procStats{}, fmt.Errorf("reading daemon status: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			ps.vmHWMKB, _ = strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
		}
	}
	return ps, sc.Err()
}

// registry tracks live daemons so a signal or a fatal error can kill
// them on the way out.
type registry struct {
	mu   sync.Mutex
	live map[*daemon]bool
}

var running = &registry{live: map[*daemon]bool{}}

func (r *registry) add(d *daemon) {
	r.mu.Lock()
	r.live[d] = true
	r.mu.Unlock()
}

func (r *registry) remove(d *daemon) {
	r.mu.Lock()
	delete(r.live, d)
	r.mu.Unlock()
}

// stopAll kills every daemon still running.
func (r *registry) stopAll() {
	r.mu.Lock()
	ds := make([]*daemon, 0, len(r.live))
	for d := range r.live {
		ds = append(ds, d)
	}
	r.mu.Unlock()
	for _, d := range ds {
		d.stop()
	}
}
