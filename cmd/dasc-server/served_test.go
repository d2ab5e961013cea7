package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"dasc/internal/core"
	"dasc/internal/dataset"
	"dasc/internal/server"
)

const (
	loadClients       = 16
	loadRegistrations = 400
)

// servedSeries are the /v1/metrics series a loaded server must show: the
// request middleware's, the ingest pipeline's and the runtime collector's.
var servedSeries = []string{
	"dasc_http_requests_total",
	"dasc_http_request_seconds_bucket",
	"dasc_http_request_bytes_total",
	"dasc_ingest_committed_total",
	"dasc_ingest_commit_seconds_bucket",
	"dasc_runtime_goroutines",
	"dasc_runtime_heap_alloc_bytes",
	"dasc_runtime_uptime_seconds",
}

// TestServedLoadReplaysJournal drives the real dasc-server binary over real
// sockets with a real journal, once per fsync mode. 16 concurrent keep-alive
// clients send 400 registrations, a quarter of them tasks and some of those
// depending on earlier tasks. Every registration must be acknowledged with
// its X-Request-ID echoed, /v1/metrics must show the telemetry series, the
// server must exit 0 on SIGTERM, and a fresh platform recovered from the
// journal and snapshot must serve the same GET /v1/instance bytes.
func TestServedLoadReplaysJournal(t *testing.T) {
	bin := buildServer(t)
	for _, mode := range []string{"never", "always"} {
		t.Run("fsync="+mode, func(t *testing.T) {
			journal := filepath.Join(t.TempDir(), "events.jsonl")
			srv := startServer(t, bin, "-manual", "-fsync", mode, "-journal", journal)

			workers, tasks := registerLoad(t, srv.base, "load-"+mode)
			if t.Failed() {
				t.FailNow()
			}
			metrics := get(t, srv.base+"/v1/metrics")
			for _, series := range servedSeries {
				if !regexp.MustCompile(`(?m)^` + series + `\b`).Match(metrics) {
					t.Errorf("/v1/metrics has no %s series", series)
				}
			}
			served := get(t, srv.base+"/v1/instance")
			srv.stop(t)

			in, err := dataset.Read(bytes.NewReader(served))
			if err != nil {
				t.Fatalf("served instance: %v", err)
			}
			if len(in.Workers) != workers || len(in.Tasks) != tasks {
				t.Fatalf("served %d workers and %d tasks, acknowledged %d and %d",
					len(in.Workers), len(in.Tasks), workers, tasks)
			}
			p, err := server.NewPlatform(server.Config{Allocator: core.NewGreedy()})
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			if _, err := server.Recover(p, journal+".snap", journal); err != nil {
				t.Fatalf("recover: %v", err)
			}
			rec := httptest.NewRecorder()
			server.Handler(p).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/instance", nil))
			if !bytes.Equal(rec.Body.Bytes(), served) {
				t.Errorf("recovered instance (%d bytes) differs from the served one (%d bytes)",
					rec.Body.Len(), len(served))
			}
		})
	}
}

// buildServer builds this command once into a temporary directory. go test
// puts the go tool that runs it first on the PATH, so the binary is built
// with the same toolchain as the test.
func buildServer(t *testing.T) string {
	t.Helper()
	gotool, err := exec.LookPath("go")
	if err != nil {
		t.Fatalf("no go tool on PATH: %v", err)
	}
	bin := filepath.Join(t.TempDir(), "dasc-server")
	if out, err := exec.Command(gotool, "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// servedProcess is a running dasc-server.
type servedProcess struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	log    *logBuffer
	exited chan error // cmd.Wait's result
	waited bool       // stop received from exited
}

// logBuffer collects the server's stderr.
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuffer) Write(b []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(b)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

var listeningOn = regexp.MustCompile(`listening on ([0-9.]+:[0-9]+)`)

// startServer starts bin on a free loopback port with the given flags and
// waits until it reports ready. The process is killed at cleanup unless
// stop already ended it.
func startServer(t *testing.T, bin string, flags ...string) *servedProcess {
	t.Helper()
	s := &servedProcess{log: &logBuffer{}, exited: make(chan error, 1)}
	s.cmd = exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, flags...)...)
	s.cmd.Stderr = s.log
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() { s.exited <- s.cmd.Wait() }()
	t.Cleanup(func() {
		if !s.waited {
			s.cmd.Process.Kill()
			<-s.exited
		}
	})
	deadline := time.Now().Add(20 * time.Second)
	for s.base == "" {
		if m := listeningOn.FindStringSubmatch(s.log.String()); m != nil {
			s.base = "http://" + m[1]
		} else if time.Now().After(deadline) {
			t.Fatalf("server did not start:\n%s", s.log)
		} else {
			time.Sleep(10 * time.Millisecond)
		}
	}
	for {
		resp, err := http.Get(s.base + "/v1/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became ready:\n%s", s.log)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop sends SIGTERM and requires the server to exit with status 0.
func (s *servedProcess) stop(t *testing.T) {
	t.Helper()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-s.exited:
		s.waited = true
		if err != nil {
			t.Fatalf("server exit on SIGTERM: %v\n%s", err, s.log)
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("server did not exit on SIGTERM:\n%s", s.log)
	}
}

// registerLoad sends loadRegistrations registrations from loadClients
// concurrent clients, each on a keep-alive connection of its own. Every
// fourth registration is a task, and a task depends on an acknowledged
// earlier task with probability 0.3. It requires every registration to be
// acknowledged with its X-Request-ID echoed, the acknowledged worker and
// task IDs each to run 0..n-1, and at least one dependency to have been
// sent; it returns the worker and task counts.
func registerLoad(t *testing.T, base, idPrefix string) (workers, tasks int) {
	t.Helper()
	var (
		next     atomic.Int64 // registrations handed out
		maxTask  atomic.Int64 // one past the highest acknowledged task ID; stored under mu
		deps     atomic.Int64 // tasks sent with a dependency
		mu       sync.Mutex
		workerID []int
		taskID   []int
		wg       sync.WaitGroup
	)
	errs := make(chan error, loadClients) // a client sends at most one error
	for c := 0; c < loadClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{}}
			defer client.CloseIdleConnections()
			rng := rand.New(rand.NewSource(int64(c) + 1))
			for seq := 0; ; seq++ {
				i := next.Add(1) - 1
				if i >= loadRegistrations {
					return
				}
				isTask := i%4 == 0
				var path, body string
				if isTask {
					dep := ""
					if mt := maxTask.Load(); mt > 0 && rng.Float64() < 0.3 {
						dep = fmt.Sprintf(`,"deps":[%d]`, rng.Int63n(mt))
						deps.Add(1)
					}
					path = "/v1/tasks"
					body = fmt.Sprintf(`{"x":%.4f,"y":%.4f,"start":0,"wait":1000000,"requires":%d,"weight":%.4f%s}`,
						rng.Float64()*100, rng.Float64()*100, rng.Intn(8), 1+rng.Float64(), dep)
				} else {
					path = "/v1/workers"
					body = fmt.Sprintf(`{"x":%.4f,"y":%.4f,"start":0,"wait":1000000,"velocity":%.4f,"max_dist":1000000,"skills":[%d]}`,
						rng.Float64()*100, rng.Float64()*100, 1+rng.Float64(), rng.Intn(8))
				}
				id, err := register(client, base+path, body, idPrefix+"-"+strconv.Itoa(c)+"-"+strconv.Itoa(seq))
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				if isTask {
					taskID = append(taskID, id)
					if int64(id) >= maxTask.Load() {
						maxTask.Store(int64(id) + 1)
					}
				} else {
					workerID = append(workerID, id)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, ids := range []struct {
		kind string
		ids  []int
	}{{"worker", workerID}, {"task", taskID}} {
		slices.Sort(ids.ids)
		for i, id := range ids.ids {
			if id != i {
				t.Errorf("acknowledged %s IDs are not 0..%d: %v", ids.kind, len(ids.ids)-1, ids.ids)
				break
			}
		}
	}
	if got := len(workerID) + len(taskID); got != loadRegistrations {
		t.Errorf("acknowledged %d registrations, want %d", got, loadRegistrations)
	}
	if deps.Load() == 0 {
		t.Error("no task was sent with a dependency")
	}
	return len(workerID), len(taskID)
}

// register POSTs one registration and returns its acknowledged ID. It
// retries a 429 after the response's Retry-After and requires the 201 to
// echo reqID.
func register(client *http.Client, url, body, reqID string) (int, error) {
	for attempt := 0; attempt < 30; attempt++ {
		req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
		if err != nil {
			return 0, err
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set(server.RequestIDHeader, reqID)
		resp, err := client.Do(req)
		if err != nil {
			return 0, err
		}
		b, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		switch resp.StatusCode {
		case http.StatusCreated:
			if got := resp.Header.Get(server.RequestIDHeader); got != reqID {
				return 0, fmt.Errorf("%s: X-Request-ID echoed as %q", reqID, got)
			}
			var ack struct {
				ID *int `json:"id"`
			}
			if err := json.Unmarshal(b, &ack); err != nil || ack.ID == nil {
				return 0, fmt.Errorf("%s: acknowledgement %q has no id", reqID, b)
			}
			return *ack.ID, nil
		case http.StatusTooManyRequests:
			wait, err := strconv.Atoi(resp.Header.Get("Retry-After"))
			if err != nil || wait < 0 {
				return 0, fmt.Errorf("%s: 429 with Retry-After %q", reqID, resp.Header.Get("Retry-After"))
			}
			time.Sleep(time.Duration(wait) * time.Second)
		default:
			return 0, fmt.Errorf("%s: POST %s: %s: %s", reqID, url, resp.Status, b)
		}
	}
	return 0, fmt.Errorf("%s: still backpressured after 30 attempts", reqID)
}

// get returns the body of a 200 response to GET url.
func get(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s: %s", url, resp.Status, b)
	}
	return b
}
