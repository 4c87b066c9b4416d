package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"
)

// procResult is one finished subprocess. cpu is its user plus system
// time, which unlike wall time excludes the time a virtual machine's host
// ran other guests on its cores.
type procResult struct {
	wall   time.Duration
	cpu    time.Duration
	rssMiB float64
	stdout []byte
	stderr []byte
}

// runProc runs bin with args to completion and reports its wall time and
// peak resident set size.
func runProc(ctx context.Context, bin string, args ...string) (procResult, error) {
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.SysProcAttr = diesWithParent()
	var out, errb bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	res := procResult{wall: time.Since(start), stdout: out.Bytes(), stderr: errb.Bytes()}
	if ps := cmd.ProcessState; ps != nil {
		res.rssMiB = maxRSSMiB(ps)
		res.cpu = ps.UserTime() + ps.SystemTime()
	}
	if err != nil {
		return res, fmt.Errorf("%s %v: %w: %s", filepath.Base(bin), args, err, lastLine(errb.Bytes()))
	}
	return res, nil
}

// diesWithParent makes the kernel kill a child when the harness dies, so
// no command or server outlives a harness that is itself killed.
func diesWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

func maxRSSMiB(ps *os.ProcessState) float64 {
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
		return float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return 0
}

func lastLine(b []byte) string {
	b = bytes.TrimSpace(b)
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		b = b[i+1:]
	}
	return string(b)
}

// server is one running cmd/serve process.
type server struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	exited chan struct{}
	err    error
}

// startServer launches bin serving on a free loopback port.
func startServer(bin string, args ...string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	s := &server{url: "http://" + addr, exited: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.SysProcAttr = diesWithParent()
	s.cmd.Stdout = io.Discard
	s.cmd.Stderr = &s.stderr
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	go func() {
		s.err = s.cmd.Wait()
		close(s.exited)
	}()
	return s, nil
}

// waitReady polls /healthz until it answers 200, giving up timeout after
// start.
func (s *server) waitReady(start time.Time, timeout time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := start.Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case <-s.exited:
			return fmt.Errorf("server exited before ready: %v: %s", s.err, lastLine(s.stderr.Bytes()))
		default:
		}
		resp, err := client.Get(s.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("server %s not ready after %v", s.url, timeout)
}

// stop interrupts the server (a graceful drain that closes the store and
// catalog), kills it if the drain overruns, waits for it to exit and
// returns its peak resident set size and CPU time.
func (s *server) stop() (rssMiB float64, cpu time.Duration) {
	select {
	case <-s.exited:
	default:
		_ = s.cmd.Process.Signal(os.Interrupt)
		select {
		case <-s.exited:
		case <-time.After(15 * time.Second):
			_ = s.cmd.Process.Kill()
			<-s.exited
		}
	}
	ps := s.cmd.ProcessState
	return maxRSSMiB(ps), ps.UserTime() + ps.SystemTime()
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// copyDir copies the regular files of src into dst, creating dst.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		if !d.Type().IsRegular() {
			return errors.New("copyDir: not a regular file: " + path)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
