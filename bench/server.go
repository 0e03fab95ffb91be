package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"
)

// env is what one harness invocation works in: the repository it
// measures, the server binary built from it, and a scratch directory
// inside the checkout that is removed on exit.
type env struct {
	root   string // repository root
	binary string // graphitti-server built from root
	work   string // per-invocation scratch directory
	n      int    // names handed out by tempPath
}

// buildDir is where the harness keeps everything it writes, inside the
// checkout: the server binary and the per-invocation scratch directories.
const buildDir = ".bench_build"

// newEnv finds the repository root (the harness runs from bench/ under
// `go run -C bench .` and from the root under a built binary), builds
// the server once and makes the scratch directory.
func newEnv(ctx context.Context) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(root, buildDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	e := &env{root: root, binary: filepath.Join(dir, "graphitti-server")}
	build := exec.CommandContext(ctx, "go", "build", "-o", e.binary, "./cmd/graphitti-server")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("build graphitti-server: %w\n%s", err, out)
	}
	if e.work, err = os.MkdirTemp(dir, "run-"); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *env) close() { _ = os.RemoveAll(e.work) } // scratch only; nothing to report

// tempPath returns a fresh path under the scratch directory.
func (e *env) tempPath(name string) string {
	e.n++
	return filepath.Join(e.work, fmt.Sprintf("%03d-%s", e.n, name))
}

func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "graphitti-server", "main.go")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no cmd/graphitti-server above the working directory: run from a graphitti checkout")
		}
		dir = parent
	}
}

// server is one graphitti-server subprocess.
type server struct {
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	// exited is closed once the process has been reaped.
	exited chan struct{}
	mu     sync.Mutex
	tail   []string // last stderr lines, for failure reports
}

// startServer execs the binary on an ephemeral loopback port, parses the
// port from its "listening addr=" log line and waits for /readyz. The
// process dies with ctx.
func startServer(ctx context.Context, e *env, args ...string) (*server, error) {
	args = append([]string{"-addr", "127.0.0.1:0", "-study", "none"}, args...)
	s := &server{cmd: exec.CommandContext(ctx, e.binary, args...), exited: make(chan struct{})}
	stderr, err := s.cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := s.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		defer close(s.exited)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			s.mu.Lock()
			if s.tail = append(s.tail, line); len(s.tail) > 20 {
				s.tail = s.tail[1:]
			}
			s.mu.Unlock()
			if strings.Contains(line, "msg=listening") {
				for _, f := range strings.Fields(line) {
					if strings.HasPrefix(f, "addr=") {
						select {
						case addr <- strings.TrimPrefix(f, "addr="):
						default:
						}
					}
				}
			}
		}
		_ = s.cmd.Wait() // a killed server's exit status is expected
	}()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case <-s.exited:
		return nil, fmt.Errorf("server exited before listening:\n%s", s.stderrTail())
	case <-ctx.Done():
		s.kill()
		return nil, ctx.Err()
	}
	for {
		resp, err := http.Get(s.base + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // readiness is the status code
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, nil
			}
		}
		select {
		case <-s.exited:
			return nil, fmt.Errorf("server exited before ready:\n%s", s.stderrTail())
		case <-ctx.Done():
			s.kill()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

func (s *server) stderrTail() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return strings.Join(s.tail, "\n")
}

// kill sends SIGKILL — the benchmark's crash — and waits for the process
// to be reaped.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already-exited is fine
	<-s.exited
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// cpuSeconds returns the process's user+system CPU time so far.
func cpuSeconds(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from after its closing parenthesis, where field 3 is the state.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+1:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(f[11], 64)
	stime, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad cpu fields in /proc/%d/stat", pid)
	}
	return (utime + stime) / clockTicks, nil
}

// clockTicks is USER_HZ, which Linux fixes at 100 on every architecture
// Go supports.
const clockTicks = 100

// peakRSSMiB returns the process's VmHWM.
func peakRSSMiB(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// dirBytes sums the regular files under path (a file counts itself).
func dirBytes(path string) (int64, error) {
	var total int64
	err := filepath.WalkDir(path, func(_ string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			info, err := d.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
