package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// readyTimeout bounds one wait for /readyz; the slowest start measured
// (explore_wide's load and profile build) is under 10 s on 2 vCPUs.
const readyTimeout = 120 * time.Second

// childProcs is the GOMAXPROCS every child runs under: the machine's
// CPUs, capped so a large runner measures the same server a small one
// does.
func childProcs() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func childEnv() []string {
	return append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs()))
}

// dirs locates the checkout: root holds cmd/foresightd, bench is this
// module, out receives everything a run writes.
type dirs struct{ root, bench, out string }

// findDirs expects to run in this module's directory, which is where
// `go run -C benchmark` and `go test` put it.
func findDirs() (dirs, error) {
	bench, err := os.Getwd()
	if err != nil {
		return dirs{}, err
	}
	mod, err := os.ReadFile(filepath.Join(bench, "go.mod"))
	if err != nil || !strings.HasPrefix(string(mod), "module foresight/benchmark\n") {
		return dirs{}, fmt.Errorf("run with `go run -C benchmark foresight/benchmark` (%s is not the benchmark module)", bench)
	}
	d := dirs{root: filepath.Dir(bench), bench: bench, out: filepath.Join(bench, "out")}
	return d, os.MkdirAll(filepath.Join(d.out, "bin"), 0o755)
}

// goBuild compiles pkg (relative to dir) into out/bin/<name>.
func (d dirs) goBuild(dir, name string, args ...string) (string, error) {
	bin := filepath.Join(d.out, "bin", name)
	cmd := exec.Command("go", append([]string{"build", "-o", bin}, args...)...)
	cmd.Dir = dir
	if msg, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build %s: %w\n%s", strings.Join(args, " "), err, msg)
	}
	return bin, nil
}

// server is one running foresightd child.
type server struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{}
	log    *os.File
}

// freeAddr asks the kernel for an unused loopback port. The port is
// released before the child binds it; nothing else on a benchmark
// machine races for it.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// startServer execs foresightd and waits for /readyz to answer 200,
// returning how long that took: load, profile build, engine, listener
// and, on a WAL directory with content, recovery.
func startServer(bin string, flags []string, logPath string) (*server, time.Duration, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, 0, err
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	s := &server{base: "http://" + addr, exited: make(chan struct{}), log: logf}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr, "-quiet"}, flags...)...)
	s.cmd.Env = childEnv()
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	start := time.Now()
	if err := s.cmd.Start(); err != nil {
		logf.Close()
		return nil, 0, err
	}
	go func() {
		_ = s.cmd.Wait() // the exit status of a killed child carries no news
		close(s.exited)
	}()
	probe := &http.Client{Timeout: time.Second}
	for time.Since(start) < readyTimeout {
		select {
		case <-s.exited:
			logf.Close()
			return nil, 0, fmt.Errorf("foresightd exited before it was ready (see %s)", logPath)
		default:
		}
		resp, err := probe.Get(s.base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, time.Since(start), nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.kill()
	return nil, 0, fmt.Errorf("foresightd not ready after %v (see %s)", readyTimeout, logPath)
}

// kill sends SIGKILL and waits for the child to be gone.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // already exited is fine
	<-s.exited
	s.log.Close()
}

// peakRSSMB reads the child's resident-set high-water mark.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", s.cmd.Process.Pid)
}
