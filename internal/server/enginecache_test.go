package server

import (
	"math"
	"net/http"
	"reflect"
	"testing"

	"dasc/internal/core"
	"dasc/internal/geo"
	"dasc/internal/model"
)

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
// departures — the regime the cross-tick engine cache targets.
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

// TestServerEngineCacheDifferential ticks a platform with the carried
// engine cross-checked against a from-scratch build on every tick.
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
		t.Fatal("degenerate run: nothing assigned, cache paths not exercised")
	}
}

// scratchIndexed hands its allocator a copy of every batch whose candidate
// engine is built from scratch, so the allocator never reads the engine the
// platform carried across ticks: the reference side of the cache
// differential.
type scratchIndexed struct{ core.Allocator }

func (s scratchIndexed) Assign(b *core.Batch) *model.Assignment {
	return s.Allocator.Assign(core.NewBatch(b.In, b.Workers, b.Tasks, b.Satisfied))
}

// TestServerEngineCacheSameAssignmentsAsScratch: cached and from-scratch
// platforms fed identical registrations and ticks must produce identical
// assignments.
func TestServerEngineCacheSameAssignmentsAsScratch(t *testing.T) {
	cached, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := NewPlatform(Config{Allocator: scratchIndexed{core.NewGreedy()}})
	if err != nil {
		t.Fatal(err)
	}
	populate(t, cached)
	populate(t, scratch)
	for now := 0.0; now <= 30; now += 2.5 {
		oc, err := cached.Tick(now)
		if err != nil {
			t.Fatal(err)
		}
		os, err := scratch.Tick(now)
		if err != nil {
			t.Fatal(err)
		}
		// The cache diagnostics (revalidated/rebuilt/memo hits) differ
		// between the two regimes by design; the allocation outcome must
		// not.
		oc2, os2 := *oc, *os
		oc2.WorkersRevalidated, oc2.WorkersRebuilt, oc2.MemoHits = 0, 0, 0
		os2.WorkersRevalidated, os2.WorkersRebuilt, os2.MemoHits = 0, 0, 0
		if !reflect.DeepEqual(&oc2, &os2) {
			t.Fatalf("tick at %v diverged:\ncached:  %+v\nscratch: %+v", now, oc, os)
		}
	}
	if !reflect.DeepEqual(cached.Assignments(), scratch.Assignments()) {
		t.Fatal("final assignments diverge")
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
