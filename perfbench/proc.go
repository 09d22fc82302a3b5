package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// cliRun is one finished child process.
type cliRun struct {
	wall     time.Duration
	maxRSSMB float64
	stderr   string
}

// childReport is what the launcher writes once its child has exited.
type childReport struct {
	WallNs   int64 `json:"wall_ns"`
	MaxRSSKB int64 `json:"maxrss_kb"`
	Exit     int   `json:"exit"`
}

// launcherCmd wraps bin+args in the launcher (this program's "spawn" mode).
//
// Linux starts a child with the parent's memory map until exec and then
// seeds the child's ru_maxrss with that map's high-water mark, so a child
// started straight from this process would report at least this process's
// own peak (which holds the generated inputs). The launcher is a fresh,
// small process: the grandchild's ru_maxrss is its own.
func launcherCmd(ctx context.Context, report, bin string, args ...string) *exec.Cmd {
	self, err := os.Executable()
	if err != nil {
		self = os.Args[0]
	}
	return exec.CommandContext(ctx, self, append([]string{"spawn", report, bin}, args...)...)
}

func readChildReport(path string) (childReport, error) {
	var r childReport
	b, err := os.ReadFile(path)
	if err != nil {
		return r, fmt.Errorf("launcher report: %w", err)
	}
	return r, json.Unmarshal(b, &r)
}

// spawnMain is the launcher: spawn REPORT BIN ARGS... runs BIN with the
// launcher's stdio, forwards SIGTERM and SIGINT to it, and writes its wall
// time, peak RSS and exit code to REPORT as JSON.
func spawnMain(args []string) int {
	if len(args) < 2 {
		fmt.Fprintln(os.Stderr, "perfbench: error: spawn REPORT BIN [ARGS...]")
		return 2
	}
	// Pdeathsig fires when the creating thread exits; pin it.
	runtime.LockOSThread()
	cmd := exec.Command(args[1], args[2:]...)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	start := time.Now()
	if err := cmd.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: error: %v\n", err)
		return 1
	}
	go func() {
		for s := range sigs {
			_ = cmd.Process.Signal(s)
		}
	}()
	_ = cmd.Wait() // the exit code goes into the report
	rep := childReport{WallNs: int64(time.Since(start)), Exit: cmd.ProcessState.ExitCode()}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rep.MaxRSSKB = ru.Maxrss
	}
	b, _ := json.Marshal(rep)
	if err := os.WriteFile(args[0], b, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: error: %v\n", err)
		return 1
	}
	return 0
}

// runCLI runs bin with args as a fresh child process (through the
// launcher) and reports its wall time and peak resident set size.
func runCLI(ctx context.Context, dir, bin string, args ...string) (cliRun, error) {
	report := filepath.Join(dir, "child.json")
	os.Remove(report)
	cmd := launcherCmd(ctx, report, bin, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	r := cliRun{stderr: stderr.String()}
	if err == nil {
		var cr childReport
		if cr, err = readChildReport(report); err == nil {
			r.wall = time.Duration(cr.WallNs)
			r.maxRSSMB = kbToMB(cr.MaxRSSKB)
			if cr.Exit != 0 {
				err = fmt.Errorf("exit status %d", cr.Exit)
			}
		}
	}
	if err != nil {
		return r, fmt.Errorf("%s %s: %w: %s", filepath.Base(bin), strings.Join(args, " "), err, lastLine(r.stderr))
	}
	return r, nil
}

// kbToMB converts ru_maxrss (KiB on Linux) to MB.
func kbToMB(kb int64) float64 { return float64(kb) * 1024 / 1e6 }

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// daemon is a running s3pgd child process.
type daemon struct {
	cmd    *exec.Cmd
	report string
	base   string
	client *http.Client
	logf   *os.File
}

// startDaemon starts s3pgd on a free loopback port with its spool under dir
// and returns once /readyz answers 200.
func startDaemon(ctx context.Context, bin, dir string, conns int, extra ...string) (*daemon, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	addrFile := filepath.Join(dir, "addr")
	logf, err := os.Create(filepath.Join(dir, "daemon.log"))
	if err != nil {
		return nil, err
	}
	args := append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-spool", filepath.Join(dir, "spool")}, extra...)
	report := filepath.Join(dir, "rusage.json")
	cmd := launcherCmd(context.Background(), report, bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, logf: logf, report: report, client: &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}}
	deadline := time.Now().Add(30 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(bytes.TrimSpace(b)) > 0 {
			d.base = "http://" + strings.TrimSpace(string(b))
			if resp, err := d.client.Get(d.base + "/readyz"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			d.stop()
			return nil, fmt.Errorf("s3pgd not ready after 30s (log %s)", logf.Name())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop drains the daemon with SIGTERM, waits for it to exit (killing it if
// the drain hangs), and returns its peak RSS in MB.
func (d *daemon) stop() (float64, error) {
	defer d.logf.Close()
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-done:
	case <-time.After(60 * time.Second):
		_ = d.cmd.Process.Kill()
		err = <-done
		if err == nil {
			err = errors.New("s3pgd ignored SIGTERM for 60s")
		}
	}
	cr, rerr := readChildReport(d.report)
	if err == nil {
		err = rerr
	}
	if err == nil && cr.Exit != 0 {
		err = fmt.Errorf("s3pgd exit status %d (log %s)", cr.Exit, d.logf.Name())
	}
	return kbToMB(cr.MaxRSSKB), err
}

// do sends one request and returns the status and body.
func (d *daemon) do(ctx context.Context, method, path, ctype string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, d.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// expect sends a request and decodes a JSON answer with the wanted status.
func (d *daemon) expect(ctx context.Context, method, path string, body []byte, want int, into any) error {
	code, b, err := d.do(ctx, method, path, "application/json", body)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if code != want {
		return fmt.Errorf("%s %s: status %d, want %d: %s", method, path, code, want, lastLine(string(b)))
	}
	if into != nil {
		if err := json.Unmarshal(b, into); err != nil {
			return fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return nil
}

// jobStatus is the part of GET /jobs/{id} the benchmark reads.
type jobStatus struct {
	ID       string `json:"id"`
	State    string `json:"state"`
	Error    string `json:"error"`
	Timeline []struct {
		Phase string    `json:"phase"`
		At    time.Time `json:"at"`
	} `json:"timeline"`
}

// runJob submits a prepared POST /jobs body and polls until the job is done.
// It returns the final status and the time from POST to observed "done".
func (d *daemon) runJob(ctx context.Context, body []byte) (jobStatus, time.Duration, error) {
	var j jobStatus
	start := time.Now()
	if err := d.expect(ctx, http.MethodPost, "/jobs", body, http.StatusAccepted, &j); err != nil {
		return j, 0, err
	}
	for {
		if err := d.expect(ctx, http.MethodGet, "/jobs/"+j.ID, nil, http.StatusOK, &j); err != nil {
			return j, 0, err
		}
		switch j.State {
		case "done":
			return j, time.Since(start), nil
		case "failed", "canceled":
			return j, 0, fmt.Errorf("job %s ended %s: %s", j.ID, j.State, j.Error)
		}
		if err := ctx.Err(); err != nil {
			return j, 0, err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// get fetches path and fails on any status but 200.
func (d *daemon) get(ctx context.Context, path string) ([]byte, error) {
	code, b, err := d.do(ctx, http.MethodGet, path, "", nil)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", path, err)
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d: %s", path, code, lastLine(string(b)))
	}
	return b, nil
}
