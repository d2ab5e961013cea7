package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"
)

// client is one keep-alive HTTP connection to the server's Unix socket.
type client struct {
	hc *http.Client
}

func newClient(sock string) *client {
	tr := &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "unix", sock)
		},
		MaxIdleConns:        1,
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &client{hc: &http.Client{Transport: tr, Timeout: 10 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and returns the body of a 2xx answer; any other
// status is an error (not retried: a refused request is a failed one).
func (c *client) do(method, path string, body []byte, reqID string) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, "http://dasc"+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// parseID reads n from a registration acknowledgement {"id":n}.
func parseID(body []byte) (int, error) {
	i := bytes.Index(body, []byte(`"id":`))
	if i < 0 {
		return 0, fmt.Errorf("no id in %q", body)
	}
	rest := body[i+5:]
	j := 0
	for j < len(rest) && rest[j] >= '0' && rest[j] <= '9' {
		j++
	}
	return strconv.Atoi(string(rest[:j]))
}

// waitReady polls GET /v1/readyz until it answers 200, the process exits or
// the deadline passes.
func waitReady(c *client, exited <-chan struct{}, deadline time.Duration) error {
	stop := time.Now().Add(deadline)
	for time.Now().Before(stop) {
		if _, err := c.do("GET", "/v1/readyz", nil, ""); err == nil {
			return nil
		}
		select {
		case <-exited:
			return errors.New("server exited before it was ready")
		case <-time.After(time.Millisecond):
		}
	}
	return fmt.Errorf("server not ready after %v", deadline)
}

// child is a dasc-server process.
type child struct {
	cmd    *exec.Cmd
	exited chan struct{}
	err    error
}

// startServer launches dasc-server on sock over the given journal (its
// snapshot defaults to <journal>.snap) and returns once /v1/readyz answers
// 200, with the time that took.
func startServer(bin, sock, journal, logPath string) (*child, time.Duration, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, 0, err
	}
	defer logf.Close()
	cmd := exec.Command(bin,
		"-addr", "unix:"+sock, "-manual", "-fsync", "always", "-alg", "G-G",
		"-journal", journal)
	cmd.Stdout, cmd.Stderr = logf, logf
	// Should the benchmark die without stopping the server (a fatal signal,
	// an unrecovered panic), the kernel kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	ch := &child{cmd: cmd, exited: make(chan struct{})}
	go func() {
		ch.err = cmd.Wait()
		close(ch.exited)
	}()
	c := newClient(sock)
	defer c.close()
	if err := waitReady(c, ch.exited, 120*time.Second); err != nil {
		ch.kill()
		return nil, 0, err
	}
	return ch, time.Since(start), nil
}

// stop sends SIGTERM (a graceful drain) and waits for the process to end,
// killing it if it takes longer than 20 s. dasc-server installs its signal
// handler just after it turns ready, so a server stopped right after set-up
// may die of the signal itself; that is a clean stop too.
func (ch *child) stop() error {
	select {
	case <-ch.exited:
	default:
		_ = ch.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-ch.exited:
		case <-time.After(20 * time.Second):
			ch.kill()
			return errors.New("server ignored SIGTERM")
		}
	}
	var ee *exec.ExitError
	if errors.As(ch.err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	return ch.err
}

func (ch *child) kill() {
	_ = ch.cmd.Process.Kill()
	<-ch.exited
}
