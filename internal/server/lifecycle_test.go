package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dasc/internal/core"
)

// TestTaskWeightRoundTripsThroughHTTPAndJournal pins the POST-side weight
// bug: taskDTO used to drop weight, so HTTP-registered tasks always carried
// weight 0 even though the model, the journal and GET /v1/instance all have
// the field.
func TestTaskWeightRoundTripsThroughHTTPAndJournal(t *testing.T) {
	var log bytes.Buffer
	j := NewJournal(&log, nil)
	p, err := NewPlatform(Config{Allocator: core.NewGreedy(), Journal: j})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(p))
	defer ts.Close()

	resp, out := postJSON(t, ts.URL+"/v1/tasks",
		`{"x":1,"y":2,"start":0,"wait":100,"requires":0,"deps":[],"weight":2.5}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("status %d (%v)", resp.StatusCode, out)
	}
	if w := p.InstanceView().Tasks[0].Weight; w != 2.5 {
		t.Fatalf("registered weight = %v, want 2.5", w)
	}
	if !strings.Contains(log.String(), `"weight":2.5`) {
		t.Fatalf("journal lost the weight: %q", log.String())
	}
	// And it survives replay.
	p2, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
	if _, err := ReplayJournal(bytes.NewReader(log.Bytes()), p2); err != nil {
		t.Fatal(err)
	}
	if w := p2.InstanceView().Tasks[0].Weight; w != 2.5 {
		t.Fatalf("replayed weight = %v, want 2.5", w)
	}
}

func TestRequestBodyCapReturns413(t *testing.T) {
	p, err := NewPlatform(Config{Allocator: core.NewGreedy(), MaxBodyBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(p))
	defer ts.Close()

	huge := `{"x":1,"y":2,"skills":[` + strings.Repeat("0,", 200) + `0]}`
	resp, _ := postJSON(t, ts.URL+"/v1/workers", huge)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: status %d, want 413", resp.StatusCode)
	}
	// Within the cap still works.
	resp, out := postJSON(t, ts.URL+"/v1/workers",
		`{"x":1,"y":2,"wait":10,"velocity":1,"max_dist":10,"skills":[0]}`)
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("small body: status %d (%v)", resp.StatusCode, out)
	}
}

func TestHealthzAlwaysUpReadyzGatesMutations(t *testing.T) {
	p, ts := newTestServer(t)

	get := func(path string) int {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if got := get("/v1/healthz"); got != http.StatusOK {
		t.Errorf("healthz = %d", got)
	}
	if got := get("/v1/readyz"); got != http.StatusOK {
		t.Errorf("readyz while ready = %d", got)
	}

	p.SetReady(false)
	if got := get("/v1/healthz"); got != http.StatusOK {
		t.Errorf("healthz while recovering = %d, want 200 (liveness, not readiness)", got)
	}
	if got := get("/v1/readyz"); got != http.StatusServiceUnavailable {
		t.Errorf("readyz while recovering = %d, want 503", got)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/workers",
		`{"x":1,"y":2,"wait":10,"velocity":1,"max_dist":10,"skills":[0]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("POST while recovering = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After hint")
	}
	// Reads stay served during recovery.
	if got := get("/v1/stats"); got != http.StatusOK {
		t.Errorf("stats while recovering = %d", got)
	}

	p.SetReady(true)
	if got := get("/v1/readyz"); got != http.StatusOK {
		t.Errorf("readyz after recovery = %d", got)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/workers",
		`{"x":1,"y":2,"wait":10,"velocity":1,"max_dist":10,"skills":[0]}`)
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("POST after recovery = %d", resp.StatusCode)
	}
}

func TestSnapshotEndpoint(t *testing.T) {
	dir := t.TempDir()
	spath := filepath.Join(dir, "state.snap")
	p, err := NewPlatform(Config{Allocator: core.NewGreedy(), SnapshotPath: spath})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(p))
	defer ts.Close()
	driveExample(t, p)

	resp, out := postJSON(t, ts.URL+"/v1/snapshot", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("snapshot: status %d (%v)", resp.StatusCode, out)
	}
	if out["bytes"].(float64) == 0 || out["path"].(string) != spath {
		t.Errorf("snapshot info = %v", out)
	}
	if _, err := os.Stat(spath); err != nil {
		t.Fatalf("snapshot file missing: %v", err)
	}
	p2, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
	rep, err := Recover(p2, spath, "")
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SnapshotLoaded {
		t.Error("endpoint snapshot not loadable")
	}
	if s1, s2 := stateString(p), stateString(p2); s1 != s2 {
		t.Fatalf("recovered state differs:\n%s\n%s", s1, s2)
	}

	// Without a configured path the endpoint refuses rather than guessing.
	p3, _ := NewPlatform(Config{Allocator: core.NewGreedy()})
	ts3 := httptest.NewServer(Handler(p3))
	defer ts3.Close()
	if resp, _ := postJSON(t, ts3.URL+"/v1/snapshot", ""); resp.StatusCode != http.StatusConflict {
		t.Errorf("unconfigured snapshot: status %d, want 409", resp.StatusCode)
	}
}
