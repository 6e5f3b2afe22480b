package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"clockrlc/internal/obs"
)

var (
	buildOnce sync.Once
	buildPath string
	buildErr  error
)

// binary builds rlcxd once per test run.
func binary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "rlcxd-test-*")
		if err != nil {
			buildErr = err
			return
		}
		buildPath = filepath.Join(dir, "rlcxd")
		out, err := exec.Command("go", "build", "-o", buildPath, ".").CombinedOutput()
		if err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildPath
}

type daemon struct {
	cmd  *exec.Cmd
	addr string
	errB *bytes.Buffer
}

// startDaemon launches rlcxd on a free port and waits for the listen
// line.
func startDaemon(t *testing.T, extra ...string) *daemon {
	t.Helper()
	args := append([]string{"-addr", "127.0.0.1:0"}, extra...)
	cmd := exec.Command(binary(t), args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	errB := &bytes.Buffer{}
	cmd.Stderr = errB
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if cmd.ProcessState == nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})

	lines := bufio.NewScanner(stdout)
	addrCh := make(chan string, 1)
	go func() {
		for lines.Scan() {
			if _, a, ok := strings.Cut(lines.Text(), "listening on "); ok {
				addrCh <- a
				break
			}
		}
		close(addrCh)
	}()
	select {
	case a, ok := <-addrCh:
		if !ok {
			cmd.Wait()
			t.Fatalf("rlcxd exited before listening; stderr: %s", errB)
		}
		return &daemon{cmd: cmd, addr: a, errB: errB}
	case <-time.After(30 * time.Second):
		t.Fatal("rlcxd never printed its listen address")
	}
	return nil
}

// wait returns the daemon's exit code, failing the test if it does
// not exit within the deadline.
func (d *daemon) wait(t *testing.T, deadline time.Duration) int {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case <-done:
		return d.cmd.ProcessState.ExitCode()
	case <-time.After(deadline):
		d.cmd.Process.Kill()
		t.Fatalf("rlcxd did not exit; stderr: %s", d.errB)
		return -1
	}
}

func (d *daemon) post(t *testing.T, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post("http://"+d.addr+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

// metric returns the integer value of one of the daemon's /metrics
// lines (-1 when /metrics cannot be read or lacks it).
func metric(addr, name string) int {
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		return -1
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(body), "\n") {
		if f, ok := strings.CutPrefix(line, name+" "); ok {
			if n, err := strconv.Atoi(strings.TrimSpace(f)); err == nil {
				return n
			}
		}
	}
	return -1
}

func smallBatch(segments int) string {
	seg := `{"length_um": 2000, "signal_width_um": 4, "ground_width_um": 4, "spacing_um": 2}`
	return fmt.Sprintf(`{"rise_time_ps": 50, "segments": [%s]}`,
		strings.Repeat(seg+",", segments-1)+seg)
}

// The shell convention: SIGTERM after a drain exits 143, SIGINT 130.
func TestSignalExitCodes(t *testing.T) {
	for sig, want := range map[syscall.Signal]int{
		syscall.SIGTERM: 143,
		syscall.SIGINT:  130,
	} {
		d := startDaemon(t)
		if status, body := d.post(t, smallBatch(2)); status != http.StatusOK {
			t.Fatalf("batch before %v: status %d: %s", sig, status, body)
		}
		if err := d.cmd.Process.Signal(sig); err != nil {
			t.Fatal(err)
		}
		if code := d.wait(t, 30*time.Second); code != want {
			t.Errorf("%v: exit code %d, want %d; stderr: %s", sig, code, want, d.errB)
		}
	}
}

// A traced daemon's request spans join its trace tree: the trace has
// one root, the rlcxd session span, and the batch request's span is
// its child.
func TestRequestSpansJoinTheSessionTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rlcxd.jsonl")
	d := startDaemon(t, "-trace", path)
	if status, body := d.post(t, smallBatch(1)); status != http.StatusOK {
		t.Fatalf("batch: status %d: %s", status, body)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if code := d.wait(t, 30*time.Second); code != 143 {
		t.Fatalf("exit code %d, want 143; stderr: %s", code, d.errB)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.BuildTrace(events)
	var roots []string
	for _, r := range tr.Roots {
		roots = append(roots, r.Name)
	}
	if len(roots) != 1 || roots[0] != "rlcxd" {
		t.Fatalf("trace roots %v, want exactly [rlcxd]", roots)
	}
	batches := 0
	for _, sp := range tr.Spans {
		if sp.Name != "serve.batch" {
			continue
		}
		batches++
		if sp.Parent != tr.Roots[0].ID {
			t.Errorf("serve.batch span %d has parent %d, want the rlcxd root %d", sp.ID, sp.Parent, tr.Roots[0].ID)
		}
	}
	if batches != 1 {
		t.Errorf("trace holds %d serve.batch spans, want 1", batches)
	}
}

// SIGTERM under load drains: the in-flight batch completes with 200
// and the process still exits 143.
func TestSIGTERMDrainsInFlightRequests(t *testing.T) {
	d := startDaemon(t)
	// Warm the tables so the big batch is pure lookup work.
	if status, body := d.post(t, smallBatch(1)); status != http.StatusOK {
		t.Fatalf("warmup: status %d: %s", status, body)
	}
	const hits = "clockrlc_serve_registry_hits"
	hits0 := metric(d.addr, hits)
	if hits0 < 0 {
		t.Fatalf("no %s on /metrics", hits)
	}

	type result struct {
		status int
		body   []byte
	}
	results := make(chan result, 4)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post("http://"+d.addr+"/v1/batch", "application/json",
				strings.NewReader(smallBatch(20000)))
			if err != nil {
				results <- result{status: -1, body: []byte(err.Error())}
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			results <- result{status: resp.StatusCode, body: body}
		}()
	}
	// Stop the daemon only once all four requests are past the drain
	// gate, so the drain is genuinely exercised: each takes a registry
	// hit when it pins the warmed tables, which happens after the gate
	// and admission. A request short of the gate would get 503 instead.
	deadline := time.Now().Add(10 * time.Second)
	for metric(d.addr, hits) < hits0+4 {
		if time.Now().After(deadline) {
			t.Fatal("requests never went in flight")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	close(results)
	for r := range results {
		if r.status != http.StatusOK {
			t.Errorf("in-flight request: status %d: %.200s", r.status, r.body)
			continue
		}
		var resp struct {
			Results []json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(r.body, &resp); err != nil || len(resp.Results) != 20000 {
			t.Errorf("truncated drain response: %d results, err %v", len(resp.Results), err)
		}
	}
	if code := d.wait(t, 60*time.Second); code != 143 {
		t.Errorf("exit code %d, want 143; stderr: %s", code, d.errB)
	}
}

// getHealthz returns /healthz's status code, or 0 if the daemon is
// unreachable.
func getHealthz(addr string) (int, string) {
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		return 0, ""
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// With a drain grace window, SIGTERM flips /healthz to 503 while the
// listener still answers — the window load balancers need to route
// around the drain — and the process still exits 143.
func TestHealthzDuringDrain(t *testing.T) {
	d := startDaemon(t, "-drain-grace", "3s")
	if status, body := getHealthz(d.addr); status != http.StatusOK || !strings.Contains(body, "ok") {
		t.Fatalf("healthz before drain: %d %q", status, body)
	}
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Inside the grace window the probe must observe the 503 flip.
	deadline := time.Now().Add(2 * time.Second)
	saw503 := false
	for time.Now().Before(deadline) {
		status, body := getHealthz(d.addr)
		if status == http.StatusServiceUnavailable && strings.Contains(body, "draining") {
			saw503 = true
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !saw503 {
		t.Error("healthz never answered 503 draining during the grace window")
	}
	// New extraction requests inside the window are refused, not hung.
	if status, body := d.post(t, smallBatch(1)); status != http.StatusServiceUnavailable {
		t.Errorf("batch during drain: status %d, want 503: %s", status, body)
	}
	if code := d.wait(t, 30*time.Second); code != 143 {
		t.Errorf("exit code %d, want 143; stderr: %s", code, d.errB)
	}
}
