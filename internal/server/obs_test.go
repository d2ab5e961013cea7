package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"dasc/internal/core"
	"dasc/internal/model"
	"dasc/internal/obs"
)

// populateExample1 registers the Example 1 population directly on the
// platform.
func populateExample1(t *testing.T, p *Platform) {
	t.Helper()
	ex := model.Example1()
	for _, w := range ex.Workers {
		if _, err := p.AddWorker(w); err != nil {
			t.Fatal(err)
		}
	}
	for _, tk := range ex.Tasks {
		if _, err := p.AddTask(tk); err != nil {
			t.Fatal(err)
		}
	}
}

func getBody(t *testing.T, url string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.String()
}

func TestMetricsEndpointTextAndJSON(t *testing.T) {
	p, ts := newTestServer(t)
	populateExample1(t, p)
	if resp, out := postJSON(t, ts.URL+"/v1/tick?t=0", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("tick: %d (%v)", resp.StatusCode, out)
	}

	resp, text := getBody(t, ts.URL+"/v1/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	st := p.Snapshot()
	if st.AssignedTasks == 0 {
		t.Fatal("degenerate tick: nothing assigned")
	}
	// Golden-ish: the inventory names must be present with live values.
	for _, want := range []string{
		"# TYPE dasc_batches_total counter",
		"dasc_batches_total 1",
		fmt.Sprintf("dasc_assigned_pairs_total %d", st.AssignedTasks),
		"# TYPE dasc_candidates_admitted_total counter",
		"# TYPE dasc_phase_alloc_seconds histogram",
		`dasc_phase_alloc_seconds_bucket{le="+Inf"} 1`,
		"dasc_phase_alloc_seconds_count 1",
		"# TYPE dasc_batch_active_workers gauge",
		"dasc_batch_active_workers 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics text missing %q\n%s", want, text)
		}
	}

	// The engine counters carry the tick's live values.
	admitted := fmt.Sprintf("dasc_candidates_admitted_total %d", p.Traces().Last(1)[0].CandidatesAdmitted)
	if !strings.Contains(text, admitted) || strings.Contains(text, "dasc_candidates_admitted_total 0\n") {
		t.Errorf("admitted counter not live (want %q):\n%s", admitted, text)
	}

	resp, body := getBody(t, ts.URL+"/v1/metrics?format=json")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics json status %d", resp.StatusCode)
	}
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("JSON round-trip: %v\n%s", err, body)
	}
	if snap.Counters[obs.MBatchesTotal] != 1 || snap.Counters[obs.MAssignedTotal] != int64(st.AssignedTasks) {
		t.Errorf("json counters = %v", snap.Counters)
	}
	if snap.Histograms[obs.TPhaseIndex].Count != 1 {
		t.Errorf("json histograms = %v", snap.Histograms)
	}

	if resp, _ := getBody(t, ts.URL+"/v1/metrics?format=xml"); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("unknown format status %d, want 400", resp.StatusCode)
	}
}

func TestMetricsChangeAcrossTicks(t *testing.T) {
	p, ts := newTestServer(t)
	populateExample1(t, p)
	for i, now := range []float64{0, 5, 10} {
		if resp, out := postJSON(t, ts.URL+fmt.Sprintf("/v1/tick?t=%g", now), ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("tick %d: %d (%v)", i, resp.StatusCode, out)
		}
	}
	_, body := getBody(t, ts.URL+"/v1/metrics?format=json")
	var snap obs.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters[obs.MBatchesTotal] != 3 {
		t.Errorf("batches = %d, want 3", snap.Counters[obs.MBatchesTotal])
	}
	// Greedy's cost rows are served from the travel-time memo: the memo
	// counter must move, and /v1/stats must read the same counter.
	if snap.Counters[obs.MMemoHitsTotal] == 0 {
		t.Errorf("no memo hits across ticks: %v", snap.Counters)
	}
	st := p.Snapshot()
	if st.MemoHits != snap.Counters[obs.MMemoHitsTotal] || st.MemoMisses != snap.Counters[obs.MMemoMissesTotal] {
		t.Errorf("/v1/stats memo hits/misses = %d/%d, metrics = %d/%d", st.MemoHits, st.MemoMisses,
			snap.Counters[obs.MMemoHitsTotal], snap.Counters[obs.MMemoMissesTotal])
	}
}

func TestTraceEndpoint(t *testing.T) {
	p, ts := newTestServer(t)
	populateExample1(t, p)
	for _, now := range []float64{0, 5, 10, 15} {
		if resp, out := postJSON(t, ts.URL+fmt.Sprintf("/v1/tick?t=%g", now), ""); resp.StatusCode != http.StatusOK {
			t.Fatalf("tick at %g: %d (%v)", now, resp.StatusCode, out)
		}
	}

	// Default: everything buffered, oldest first.
	resp, body := getBody(t, ts.URL+"/v1/trace")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace status %d", resp.StatusCode)
	}
	var traces []obs.BatchTrace
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatalf("trace JSON: %v\n%s", err, body)
	}
	if len(traces) != 4 {
		t.Fatalf("traces = %d, want 4", len(traces))
	}
	if traces[0].Batch != 0 || traces[3].Batch != 3 {
		t.Errorf("trace order wrong: %+v", traces)
	}
	if traces[0].Assigned == 0 {
		t.Errorf("first trace = %+v", traces[0])
	}
	if traces[0].CandidatesAdmitted == 0 {
		t.Error("engine counters missing from trace")
	}

	// last=N returns the newest N; over-asking clamps.
	_, body = getBody(t, ts.URL+"/v1/trace?last=2")
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 2 || traces[0].Batch != 2 || traces[1].Batch != 3 {
		t.Errorf("last=2 → %+v", traces)
	}
	_, body = getBody(t, ts.URL+"/v1/trace?last=999")
	if err := json.Unmarshal([]byte(body), &traces); err != nil {
		t.Fatal(err)
	}
	if len(traces) != 4 {
		t.Errorf("last=999 → %d traces, want 4 (clamped)", len(traces))
	}

	// Bad inputs are 400s, mirroring the ?t= hardening.
	for _, bad := range []string{"0", "-1", "abc", "2.5", "2x", ""} {
		resp, _ := getBody(t, ts.URL+"/v1/trace?last="+bad)
		want := http.StatusBadRequest
		if bad == "" {
			want = http.StatusOK // empty means "default", not garbage
		}
		if resp.StatusCode != want {
			t.Errorf("last=%q status %d, want %d", bad, resp.StatusCode, want)
		}
	}
}

func TestTraceRingDepthConfigurable(t *testing.T) {
	p, err := NewPlatform(Config{Allocator: core.NewGreedy(), TraceDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, now := range []float64{0, 1, 2, 3} {
		if _, err := p.Tick(now); err != nil {
			t.Fatal(err)
		}
	}
	got := p.Traces().Last(p.Traces().Len())
	if len(got) != 2 || got[0].Batch != 2 || got[1].Batch != 3 {
		t.Errorf("depth-2 ring = %+v", got)
	}
}

// TestEmptyTickStillTraced: ticks with no active workers or pending tasks
// still produce a trace and count a batch.
func TestEmptyTickStillTraced(t *testing.T) {
	p, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Tick(1); err != nil {
		t.Fatal(err)
	}
	if p.Traces().Len() != 1 {
		t.Fatalf("empty tick not traced: %d", p.Traces().Len())
	}
	tr := p.Traces().Last(1)[0]
	if tr.Batch != 0 || tr.Time != 1 || tr.Workers != 0 || tr.Tasks != 0 {
		t.Errorf("empty-tick trace = %+v", tr)
	}
	if p.Metrics().Counter(obs.MBatchesTotal).Value() != 1 {
		t.Error("empty tick not counted")
	}
}
