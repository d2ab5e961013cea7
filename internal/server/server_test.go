package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dasc/internal/core"
	"dasc/internal/geo"
	"dasc/internal/model"
)

func newTestServer(t *testing.T) (*Platform, *httptest.Server) {
	t.Helper()
	p, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(Handler(p))
	t.Cleanup(ts.Close)
	return p, ts
}

func postJSON(t *testing.T, url string, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	_ = json.Unmarshal(buf.Bytes(), &out)
	return resp, out
}

func TestHTTPEndToEndExample1(t *testing.T) {
	_, ts := newTestServer(t)

	// Register the Example 1 population through the API.
	ex := model.Example1()
	for i := range ex.Workers {
		w := &ex.Workers[i]
		skills, _ := json.Marshal(w.Skills.Skills())
		body := fmt.Sprintf(`{"x":%g,"y":%g,"start":0,"wait":1000,"velocity":10,"max_dist":1000,"skills":%s}`,
			w.Loc.X, w.Loc.Y, skills)
		resp, out := postJSON(t, ts.URL+"/v1/workers", body)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("worker %d: status %d (%v)", i, resp.StatusCode, out)
		}
		if int(out["id"].(float64)) != i {
			t.Fatalf("worker id = %v, want %d", out["id"], i)
		}
	}
	for i := range ex.Tasks {
		tk := &ex.Tasks[i]
		deps, _ := json.Marshal(tk.Deps)
		body := fmt.Sprintf(`{"x":%g,"y":%g,"start":0,"wait":1000,"requires":%d,"deps":%s}`,
			tk.Loc.X, tk.Loc.Y, tk.Requires, deps)
		resp, out := postJSON(t, ts.URL+"/v1/tasks", body)
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("task %d: status %d (%v)", i, resp.StatusCode, out)
		}
	}

	// First batch: 3 valid assignments (the paper's Figure 1(c)).
	resp, out := postJSON(t, ts.URL+"/v1/tick?t=0", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("tick status %d (%v)", resp.StatusCode, out)
	}
	if got := len(out["assigned"].([]any)); got != 3 {
		t.Fatalf("batch 0 assigned %d, want 3", got)
	}

	// Stats reflect it.
	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	sresp.Body.Close()
	if st.AssignedTasks != 3 || st.Workers != 3 || st.Tasks != 5 || st.Batches != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Later batch: freed workers take the remaining chain tasks.
	if resp, _ := postJSON(t, ts.URL+"/v1/tick?t=5", ""); resp.StatusCode != http.StatusOK {
		t.Fatal("second tick failed")
	}
	aresp, err := http.Get(ts.URL + "/v1/assignments")
	if err != nil {
		t.Fatal(err)
	}
	var assigned struct {
		Size  int `json:"size"`
		Pairs []struct {
			Worker int `json:"worker"`
			Task   int `json:"task"`
		} `json:"pairs"`
	}
	if err := json.NewDecoder(aresp.Body).Decode(&assigned); err != nil {
		t.Fatal(err)
	}
	aresp.Body.Close()
	if assigned.Size < 4 {
		t.Errorf("total assigned after two ticks = %d, want ≥ 4", assigned.Size)
	}

	// Instance archive round-trips and the SVG renders.
	iresp, err := http.Get(ts.URL + "/v1/instance")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(iresp.Body)
	iresp.Body.Close()
	if !strings.Contains(buf.String(), `"version"`) {
		t.Error("instance endpoint not dataset JSON")
	}
	vresp, err := http.Get(ts.URL + "/v1/svg")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	buf.ReadFrom(vresp.Body)
	vresp.Body.Close()
	if !strings.HasPrefix(buf.String(), "<svg") {
		t.Error("svg endpoint not SVG")
	}
}

func TestHTTPValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		path, body string
		status     int
	}{
		{"/v1/workers", `not json`, http.StatusBadRequest},
		{"/v1/workers", `{"skills":[]}`, http.StatusUnprocessableEntity},
		{"/v1/workers", `{"skills":[0],"wait":-1}`, http.StatusUnprocessableEntity},
		{"/v1/workers", `{"skills":[0],"bogus":1}`, http.StatusBadRequest},
		{"/v1/tasks", `{"requires":0,"deps":[99]}`, http.StatusUnprocessableEntity},
		{"/v1/tasks", `{"requires":0,"wait":-1}`, http.StatusUnprocessableEntity},
		{"/v1/tick", ``, http.StatusBadRequest}, // missing ?t
	}
	for _, tc := range cases {
		resp, out := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("POST %s %q: status %d, want %d (%v)", tc.path, tc.body, resp.StatusCode, tc.status, out)
		}
	}
}

func TestTickTimeMonotonicity(t *testing.T) {
	p, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Tick(10); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Tick(5); err == nil {
		t.Error("time went backwards without error")
	}
	if _, err := p.Tick(10); err != nil {
		t.Error("equal time should be allowed")
	}
}

func TestPlatformDependencyClosureOnAdd(t *testing.T) {
	p, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	t0, err := p.AddTask(model.Task{Wait: 10, Requires: 0})
	if err != nil {
		t.Fatal(err)
	}
	t1, err := p.AddTask(model.Task{Wait: 10, Requires: 0, Deps: []model.TaskID{t0}})
	if err != nil {
		t.Fatal(err)
	}
	// t2 lists only t1; the platform must close it to {t0, t1}.
	t2, err := p.AddTask(model.Task{Wait: 10, Requires: 0, Deps: []model.TaskID{t1}})
	if err != nil {
		t.Fatal(err)
	}
	in := p.Instance()
	if got := len(in.Tasks[t2].Deps); got != 2 {
		t.Errorf("closed deps = %v", in.Tasks[t2].Deps)
	}
	if _, err := p.AddTask(model.Task{Wait: 10, Requires: 0, Deps: []model.TaskID{t0, t0}}); err == nil {
		t.Error("duplicate dependency accepted")
	}
}

func TestPlatformWasteAccounting(t *testing.T) {
	// Closest baseline on Example 1: one tick wastes two dispatches.
	p, err := NewPlatform(Config{Allocator: core.NewClosest()})
	if err != nil {
		t.Fatal(err)
	}
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
	out, err := p.Tick(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Assigned) != 1 || out.Wasted != 2 {
		t.Errorf("outcome = %+v, want 1 assigned / 2 wasted", out)
	}
	st := p.Snapshot()
	if st.WastedPairs != 2 || st.AssignedTasks != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPlatformConfigValidation(t *testing.T) {
	if _, err := NewPlatform(Config{}); err == nil {
		t.Error("missing allocator accepted")
	}
	if _, err := NewPlatform(Config{Allocator: core.NewGreedy(), ServiceTime: -1}); err == nil {
		t.Error("negative service time accepted")
	}
}

func TestPlatformInstanceIsDeepCopy(t *testing.T) {
	p, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddWorker(model.Worker{Loc: geo.Pt(1, 1), Wait: 5, Velocity: 1, MaxDist: 1, Skills: model.NewSkillSet(0)}); err != nil {
		t.Fatal(err)
	}
	in := p.Instance()
	in.Workers[0].Skills.Add(99)
	if p.Instance().Workers[0].Skills.Has(99) {
		t.Error("Instance() shares skill storage with the platform")
	}
}

// TestTickRejectsMalformedTimes: the ?t= parameter must be a finite float
// with no trailing garbage. The old %g scan accepted "NaN" (which poisons
// the logical clock: now < p.now is false forever after) and ignored
// trailing junk.
func TestTickRejectsMalformedTimes(t *testing.T) {
	p, ts := newTestServer(t)
	for _, bad := range []string{"NaN", "nan", "+Inf", "-Inf", "Infinity", "1.5junk", "1e", "", "--2", "0x"} {
		resp, out := postJSON(t, ts.URL+"/v1/tick?t="+bad, "")
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("t=%q: status %d (%v), want 400", bad, resp.StatusCode, out)
		}
	}
	// The clock must still be usable after the rejected ticks.
	if _, err := p.Tick(5); err != nil {
		t.Fatalf("clock poisoned by rejected ticks: %v", err)
	}
	resp, _ := postJSON(t, ts.URL+"/v1/tick?t=7.5", "")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("valid tick after rejects: status %d", resp.StatusCode)
	}
	for _, okT := range []string{"1e3", "2000.25"} {
		resp, out := postJSON(t, ts.URL+"/v1/tick?t="+okT, "")
		if resp.StatusCode != http.StatusOK {
			t.Errorf("t=%q: status %d (%v), want 200", okT, resp.StatusCode, out)
		}
	}
}

// TestTickRejectsNonFiniteDirect guards the platform layer itself, not just
// the HTTP parser.
func TestTickRejectsNonFiniteDirect(t *testing.T) {
	p, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := p.Tick(bad); err == nil {
			t.Errorf("Tick(%v) accepted", bad)
		}
	}
	if _, err := p.Tick(1); err != nil {
		t.Fatalf("finite tick after non-finite rejects: %v", err)
	}
}

// populate registers a time-staggered population so ticks see arrivals and
// departures.
func populate(t *testing.T, p *Platform) {
	t.Helper()
	for i := 0; i < 12; i++ {
		_, err := p.AddWorker(model.Worker{
			Loc:      geo.Pt(float64(i%4), float64(i%3)),
			Start:    float64(i % 3 * 2),
			Wait:     40,
			Velocity: 1,
			MaxDist:  15,
			Skills:   model.NewSkillSet(model.Skill(i%3), model.Skill((i+1)%3)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 18; i++ {
		task := model.Task{
			Loc:      geo.Pt(float64((i*7)%5), float64((i*3)%4)),
			Start:    float64(i % 5 * 3),
			Wait:     12,
			Requires: model.Skill(i % 3),
		}
		if i%4 == 3 {
			task.Deps = []model.TaskID{model.TaskID(i - 1)}
		}
		id, err := p.AddTask(task)
		if err != nil {
			t.Fatal(err)
		}
		if int(id) != i {
			t.Fatalf("task id %d, want %d", id, i)
		}
	}
}

// TestServerEngineCacheDifferential ticks a platform with every tick's
// candidate engine cross-checked against the brute-force scan.
func TestServerEngineCacheDifferential(t *testing.T) {
	p, err := NewPlatform(Config{Allocator: core.NewGreedy(), VerifyEngineCache: true})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, p)
	for now := 0.0; now <= 30; now += 2.5 {
		if _, err := p.Tick(now); err != nil {
			t.Fatalf("tick at %v: %v", now, err)
		}
	}
	if p.Snapshot().AssignedTasks == 0 {
		t.Fatal("degenerate run: nothing assigned")
	}
}

// serverRogueAllocator names a worker outside the batch for every pending
// task — the misbehaving-custom-Allocator case.
type serverRogueAllocator struct{}

func (serverRogueAllocator) Name() string          { return "Rogue" }
func (serverRogueAllocator) DependencyAware() bool { return false }

func (serverRogueAllocator) Assign(b *core.Batch) *model.Assignment {
	a := model.NewAssignment()
	for _, task := range b.Tasks {
		a.Add(model.WorkerID(777), task.ID)
	}
	return a
}

func TestServerRogueAllocatorPairsSkipped(t *testing.T) {
	p, err := NewPlatform(Config{Allocator: serverRogueAllocator{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddWorker(model.Worker{
		Wait: 100, Velocity: 1, MaxDist: 10, Skills: model.NewSkillSet(0),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddTask(model.Task{Loc: geo.Pt(1, 0), Wait: 100, Requires: 0}); err != nil {
		t.Fatal(err)
	}
	out, err := p.Tick(1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rogue != 1 {
		t.Errorf("outcome.Rogue = %d, want 1", out.Rogue)
	}
	if len(out.Assigned) != 0 {
		t.Errorf("rogue pair dispatched: %v", out.Assigned)
	}
	st := p.Snapshot()
	if st.RoguePairs != 1 {
		t.Errorf("stats.RoguePairs = %d, want 1", st.RoguePairs)
	}
	if st.AssignedTasks != 0 {
		t.Errorf("rogue pair recorded as assignment")
	}
	// Worker 0's state must be untouched: it can still take the task.
	if got := p.kernel.Worker(&p.workers[0]); got != (core.WorkerState{Loc: geo.Pt(0, 0)}) {
		t.Errorf("worker 0 state mutated by rogue pair: %v", got)
	}
}
