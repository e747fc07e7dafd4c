package load

import (
	"context"
	"fmt"
	"io"
	"net"
	"os/exec"
	"path/filepath"
	"sync"
	"time"

	"tinyevm/internal/rpc"
)

// Daemon controls a tinyevm-serve child process: start, SIGKILL,
// restart, and readiness probing. It is the harness's handle for
// injecting whole-process crashes and timing recovery from the
// write-ahead log.
type Daemon struct {
	// Bin is the path to a built tinyevm-serve binary.
	Bin string
	// Addr is the host:port to listen on (FreeAddr picks one).
	Addr string
	// DataDir is the WAL directory; required for crash recovery.
	DataDir string
	// Provider is the provider node name (default "provider").
	Provider string
	// ExtraArgs are appended to the command line.
	ExtraArgs []string
	// Log receives the child's stderr (nil discards it).
	Log io.Writer

	mu   sync.Mutex
	proc *exec.Cmd
}

// URL returns the gateway base URL.
func (d *Daemon) URL() string { return "http://" + d.Addr }

// Start launches the child process. It does not wait for readiness;
// call WaitReady.
func (d *Daemon) Start() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.proc != nil && d.proc.ProcessState == nil {
		return fmt.Errorf("load: daemon already running (pid %d)", d.proc.Process.Pid)
	}
	args := []string{"-addr", d.Addr}
	if d.Provider != "" {
		args = append(args, "-provider", d.Provider)
	}
	if d.DataDir != "" {
		args = append(args, "-data-dir", d.DataDir)
	}
	args = append(args, d.ExtraArgs...)
	proc := exec.Command(d.Bin, args...)
	proc.Stderr = d.Log
	if err := proc.Start(); err != nil {
		return fmt.Errorf("load: starting daemon: %w", err)
	}
	d.proc = proc
	return nil
}

// WaitReady polls the gateway until it answers tinyevm_head or ctx
// expires. The probe client is plain HTTP — chaos faults never delay a
// readiness check, so recovery time measures the daemon, not the noise.
func (d *Daemon) WaitReady(ctx context.Context) error {
	client := rpc.NewClient(d.URL(), nil, rpc.WithRequestTimeout(time.Second))
	for {
		if _, err := client.Head(ctx); err == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("load: daemon at %s not ready: %w", d.Addr, ctx.Err())
		case <-time.After(25 * time.Millisecond):
		}
	}
}

// Kill SIGKILLs the child — no shutdown path runs, exactly like a power
// loss — and reaps it.
func (d *Daemon) Kill() error {
	d.mu.Lock()
	proc := d.proc
	d.mu.Unlock()
	if proc == nil || proc.Process == nil {
		return fmt.Errorf("load: daemon not running")
	}
	if err := proc.Process.Kill(); err != nil {
		return err
	}
	proc.Wait()
	return nil
}

// KillAndRestart crashes the daemon, restarts it, and returns how long
// the restarted process took to answer RPC again (WAL replay plus
// listener setup). Reports carry it; the tests hold it under 30 s.
func (d *Daemon) KillAndRestart(ctx context.Context) (time.Duration, error) {
	if err := d.Kill(); err != nil {
		return 0, err
	}
	start := time.Now()
	if err := d.Start(); err != nil {
		return 0, err
	}
	if err := d.WaitReady(ctx); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// Stop kills a still-running child; safe to call on a dead daemon.
func (d *Daemon) Stop() {
	d.mu.Lock()
	proc := d.proc
	d.mu.Unlock()
	if proc != nil && proc.ProcessState == nil && proc.Process != nil {
		proc.Process.Kill()
		proc.Wait()
	}
}

// BuildServeBinary compiles cmd/tinyevm-serve into dir and returns the
// binary path. repoRoot is the module root ("" means current dir).
func BuildServeBinary(repoRoot, dir string) (string, error) {
	bin := filepath.Join(dir, "tinyevm-serve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/tinyevm-serve")
	if repoRoot != "" {
		build.Dir = repoRoot
	}
	if out, err := build.CombinedOutput(); err != nil {
		return "", fmt.Errorf("load: building tinyevm-serve: %v\n%s", err, out)
	}
	return bin, nil
}

// FreeAddr asks the kernel for an unused loopback port.
func FreeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	l.Close()
	return addr, nil
}
