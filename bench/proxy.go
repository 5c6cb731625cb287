package main

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"rapidware/internal/control"
)

// buildProxy compiles ./cmd/rapidproxy from the checkout at root into
// root/.bench_build and returns the binary's path. The go command's own
// cache makes a second build of unchanged sources a sub-second no-op.
func buildProxy(root string) (string, error) {
	bin := filepath.Join(root, ".bench_build", "rapidproxy")
	cmd := exec.Command("go", "build", "-o", bin, "./cmd/rapidproxy")
	cmd.Dir = root
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("build rapidproxy: %w", err)
	}
	return bin, nil
}

// proxy is one live rapidproxy child: a fresh one per workload run, because a
// session pins the first peer it hears from and a reused proxy would
// black-hole the next run's echoes.
type proxy struct {
	cmd  *exec.Cmd
	pid  int
	data netip.AddrPort // UDP data plane
	ctl  *control.Client
	// ctlAddr lets a second control connection be opened beside ctl.
	ctlAddr string

	logMu sync.Mutex
	log   []string // last stderr lines, for failure reports
	logWG sync.WaitGroup
}

// readyTimeout bounds the wait for the child's two "listening" log lines.
const readyTimeout = 10 * time.Second

// startProxy spawns bin on ephemeral loopback ports with the given chain and
// extra flags, its Go scheduler procs wide, and returns once its control port
// answers.
func startProxy(bin, chain string, flags []string, procs int) (*proxy, error) {
	args := append([]string{
		"-listen", "127.0.0.1:0", "-control", "127.0.0.1:0", "-shards", "1", "-chain", chain,
	}, flags...)
	cmd := exec.Command(bin, args...)
	// The scheduler width is the workload's, not the host's, so runs stay
	// comparable across machines.
	cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	cmd.SysProcAttr = childAttr()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("spawn %s: %w", bin, err)
	}
	p := &proxy{cmd: cmd, pid: cmd.Process.Pid}

	// The child logs "serving UDP on <addr>" then "control protocol on
	// <addr>"; those two lines are its readiness signal and the only way to
	// learn the ephemeral ports. The scanner keeps draining stderr afterwards
	// so the child never blocks on a full pipe.
	type addrs struct{ data, ctl string }
	ready := make(chan addrs, 1)
	p.logWG.Add(1)
	go func() {
		defer p.logWG.Done()
		var a addrs
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			p.logMu.Lock()
			if p.log = append(p.log, line); len(p.log) > 20 {
				p.log = p.log[1:]
			}
			p.logMu.Unlock()
			if a.ctl != "" {
				continue
			}
			if _, rest, ok := strings.Cut(line, "serving UDP on "); ok {
				a.data, _, _ = strings.Cut(rest, " ")
			}
			if _, rest, ok := strings.Cut(line, "control protocol on "); ok {
				a.ctl = strings.TrimSpace(rest)
				ready <- a
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
	}()

	select {
	case a := <-ready:
		var err error
		if p.data, err = netip.ParseAddrPort(a.data); err != nil {
			p.kill()
			return nil, fmt.Errorf("proxy data address: %w", err)
		}
		p.ctlAddr = a.ctl
		if p.ctl, err = control.Dial(a.ctl, readyTimeout); err != nil {
			p.kill()
			return nil, err
		}
		return p, nil
	case <-time.After(readyTimeout):
		p.kill()
		return nil, fmt.Errorf("proxy not ready after %v; last output:\n%s", readyTimeout, p.lastLog())
	}
}

func (p *proxy) lastLog() string {
	p.logMu.Lock()
	defer p.logMu.Unlock()
	return strings.Join(p.log, "\n")
}

// kill stops the child and waits until it and its log reader have ended.
func (p *proxy) kill() {
	if p.ctl != nil {
		p.ctl.Close()
	}
	_ = p.cmd.Process.Kill()
	p.logWG.Wait()
	_ = p.cmd.Wait()
}
