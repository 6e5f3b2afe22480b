package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"
)

// daemon is one rlcxd subprocess.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{}
	err    error // Wait's result, valid once exited is closed
}

// startDaemon execs rlcxd on a free loopback port over cacheDir and
// returns once it is listening. Its standard error goes to logPath.
func startDaemon(ctx context.Context, bin, cacheDir, logPath string, extra ...string) (*daemon, error) {
	args := append([]string{"-addr", "127.0.0.1:0", "-cache", cacheDir, "-max-sets", "4"}, extra...)
	cmd := exec.Command(bin, args...)
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child holds its own descriptor
	cmd.Stderr = logf
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Read the listening line, then drain stdout until the daemon
		// exits; Wait runs only after the pipe is drained.
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "rlcxd: listening on "); ok {
				addr <- a
			}
		}
		_, _ = io.Copy(io.Discard, out) // only reached after a scan error
		d.err = cmd.Wait()
		close(d.exited)
	}()
	select {
	case a := <-addr:
		d.url = "http://" + a
		return d, nil
	case <-d.exited:
		return nil, fmt.Errorf("rlcxd exited before listening: %v (log %s)", d.err, logPath)
	case <-time.After(30 * time.Second):
	case <-ctx.Done():
	}
	d.stop()
	return nil, fmt.Errorf("rlcxd did not start listening (log %s)", logPath)
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop asks the daemon to drain (SIGTERM), kills it if it has not
// exited within 20 s, and waits for it. A drained daemon exits 143.
func (d *daemon) stop() error {
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // fails only if it already exited
	select {
	case <-d.exited:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
		return errors.New("rlcxd did not drain within 20s and was killed")
	}
	var ee *exec.ExitError
	if errors.As(d.err, &ee) && ee.ExitCode() == 143 {
		return nil
	}
	return fmt.Errorf("rlcxd exited with %v, want status 143 after SIGTERM", d.err)
}

// newClient returns an HTTP client holding at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

// post sends a JSON body and returns the status and the whole response
// body.
func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// scrapeMetrics reads the daemon's Prometheus text /metrics into a map
// of sample name to value.
func scrapeMetrics(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		var name string
		var v float64
		if _, err := fmt.Sscanf(line, "%s %g", &name, &v); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}
