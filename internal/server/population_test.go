package server

import (
	"bytes"
	"reflect"
	"testing"

	"dasc/internal/core"
	"dasc/internal/geo"
	"dasc/internal/model"
)

// oraclePopulation is the full-registry tick filter the server ran before
// the population became incremental: every registered worker and task is
// tested against the batch predicates at now. The incremental population
// must reproduce it entry for entry and in order. The caller holds p.mu.
func oraclePopulation(p *Platform, now float64) (workers []model.WorkerID, tasks []model.TaskID) {
	for i := range p.workers {
		w := &p.workers[i]
		if w.Start > now || now > w.Expiry() || p.wstate[i].busyUntil > now {
			continue
		}
		workers = append(workers, w.ID)
	}
	for i := range p.tasks {
		t := &p.tasks[i]
		if _, ok := p.assigned[t.ID]; ok {
			continue
		}
		if p.botched[t.ID] || t.Start > now || t.Deadline() < now {
			continue
		}
		tasks = append(tasks, t.ID)
	}
	return workers, tasks
}

// liveCounts counts, by full scan, the workers and tasks that can still
// reach some batch at or after now: workers not yet expired, tasks neither
// consumed nor overdue. The caller holds p.mu.
func liveCounts(p *Platform, now float64) (workers, tasks int) {
	for i := range p.workers {
		if now <= p.workers[i].Expiry() {
			workers++
		}
	}
	for i := range p.tasks {
		t := &p.tasks[i]
		if _, ok := p.assigned[t.ID]; !ok && !p.botched[t.ID] && t.Deadline() >= now {
			tasks++
		}
	}
	return workers, tasks
}

// checkPopulation compares the incremental population at now with the
// oracle's, and the persistent satisfied set and assignment log with the
// assigned map they mirror.
func checkPopulation(t *testing.T, p *Platform, now float64) (workers, tasks int) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	wantW, wantT := oraclePopulation(p, now)
	bws, wIdx, pending := p.populationLocked(now)
	var gotW []model.WorkerID
	for i := range bws {
		gotW = append(gotW, bws[i].W.ID)
		if wIdx[i] != int(bws[i].W.ID) {
			t.Fatalf("t=%v: batch worker %d has registry index %d", now, bws[i].W.ID, wIdx[i])
		}
	}
	var gotT []model.TaskID
	for _, task := range pending {
		gotT = append(gotT, task.ID)
	}
	if !reflect.DeepEqual(gotW, wantW) {
		t.Fatalf("t=%v: active workers\n got %v\nwant %v", now, gotW, wantW)
	}
	if !reflect.DeepEqual(gotT, wantT) {
		t.Fatalf("t=%v: pending tasks\n got %v\nwant %v", now, gotT, wantT)
	}
	w, tk := p.pop.Len()
	if lw, lt := liveCounts(p, now); w != lw || tk != lt {
		t.Fatalf("t=%v: population holds %d workers %d tasks, live set is %d and %d", now, w, tk, lw, lt)
	}
	nSat := 0
	for _, set := range p.satisfied {
		if set {
			nSat++
		}
	}
	if nSat != len(p.assigned) || len(p.assignLog) != len(p.assigned) {
		t.Fatalf("t=%v: %d satisfied, %d logged, %d assigned", now, nSat, len(p.assignLog), len(p.assigned))
	}
	for _, pair := range p.assignLog {
		if w, ok := p.assigned[pair.Task]; !ok || w != pair.Worker || !p.satisfied.Has(pair.Task) {
			t.Fatalf("t=%v: logged %v, assigned map has (w%d, %v), satisfied %v",
				now, pair, w, ok, p.satisfied.Has(pair.Task))
		}
	}
	return len(wantW), len(wantT)
}

// TestTickPopulationMatchesFullScan runs the golden stream and, around
// every tick, checks the incremental population against the full-registry
// oracle: before the tick (the population the tick is about to allocate)
// and after it (the dispatches changed who is busy and what is open).
func TestTickPopulationMatchesFullScan(t *testing.T) {
	for _, alg := range []string{core.NameGreedy, core.NameClosest} {
		t.Run(alg, func(t *testing.T) {
			var wantW, wantT int
			ticks := 0
			hook := func(t *testing.T, p *Platform, now float64, out *BatchOutcome) {
				if out == nil {
					wantW, wantT = checkPopulation(t, p, now)
					return
				}
				ticks++
				if out.Workers != wantW || out.Tasks != wantT {
					t.Fatalf("t=%v: tick allocated %d workers %d tasks, oracle %d and %d",
						now, out.Workers, out.Tasks, wantW, wantT)
				}
				checkPopulation(t, p, now)
			}
			runGoldenStream(t, alg, hook)
			if ticks != goldenTotalTicks {
				t.Fatalf("checked %d ticks, want %d", ticks, goldenTotalTicks)
			}
		})
	}
}

// TestTickPopulationForgetsExpiredHistory checks that a tick's work stops
// depending on history: once a chunk of registrations has expired or been
// assigned, the population holds exactly the live set, also after a
// snapshot restore. It counts entries, not time, so it cannot flake.
func TestTickPopulationForgetsExpiredHistory(t *testing.T) {
	p, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	// History: 500 workers and 500 tasks alive on [0, 1]; the first 200
	// tasks sit on a worker and get assigned at t=0, the rest never can.
	for i := 0; i < 500; i++ {
		if _, err := p.AddWorker(model.Worker{
			Loc: geo.Pt(float64(i), 0), Wait: 1, Velocity: 1, MaxDist: 1,
			Skills: model.NewSkillSet(0),
		}); err != nil {
			t.Fatal(err)
		}
		y := 0.0
		if i >= 200 {
			y = 50
		}
		if _, err := p.AddTask(model.Task{Loc: geo.Pt(float64(i), y), Wait: 1, Requires: 0}); err != nil {
			t.Fatal(err)
		}
	}
	out, err := p.Tick(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Assigned) != 200 {
		t.Fatalf("history tick assigned %d, want 200", len(out.Assigned))
	}
	// The live set: 5 workers, 3 open tasks nobody can serve and 2 tasks
	// that have not appeared yet.
	for i := 0; i < 5; i++ {
		if _, err := p.AddWorker(model.Worker{
			Loc: geo.Pt(0, 10), Start: 2, Wait: 100, Velocity: 1, MaxDist: 1,
			Skills: model.NewSkillSet(1),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		start := 2.0
		if i >= 3 {
			start = 50
		}
		if _, err := p.AddTask(model.Task{Loc: geo.Pt(0, 90), Start: start, Wait: 100, Requires: 2}); err != nil {
			t.Fatal(err)
		}
	}
	assertLive := func(p *Platform, now float64) {
		t.Helper()
		out, err := p.Tick(now)
		if err != nil {
			t.Fatal(err)
		}
		if out.Workers != 5 || out.Tasks != 3 {
			t.Fatalf("t=%v: tick saw %d workers %d tasks, want 5 and 3", now, out.Workers, out.Tasks)
		}
		p.mu.Lock()
		defer p.mu.Unlock()
		w, tk := p.pop.Len()
		if w != 5 || tk != 5 {
			t.Fatalf("t=%v: population holds %d workers %d tasks, want the live 5 and 5", now, w, tk)
		}
		if lw, lt := liveCounts(p, now); w != lw || tk != lt {
			t.Fatalf("t=%v: population holds %d/%d, full scan finds %d/%d live", now, w, tk, lw, lt)
		}
	}
	assertLive(p, 3)
	assertLive(p, 4)

	var snap bytes.Buffer
	if err := p.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlatform(Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	if err := p2.ReadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	assertLive(p2, 5)
}

// reverseAllocator lists its inner allocator's pairs in reverse, so every
// dependant comes before its co-assigned dependency.
type reverseAllocator struct{ inner core.Allocator }

func (r reverseAllocator) Name() string { return "Reverse" }

func (r reverseAllocator) Assign(b *core.Batch) *model.Assignment {
	a := r.inner.Assign(b)
	for i, j := 0, len(a.Pairs)-1; i < j; i, j = i+1, j-1 {
		a.Pairs[i], a.Pairs[j] = a.Pairs[j], a.Pairs[i]
	}
	return a
}

// TestDispatchWaitsForCoAssignedDependency pins the dispatch order: a
// dependant assigned in the same batch as its dependency starts service
// only once the dependency finishes, whatever order the allocator lists
// the pairs in.
func TestDispatchWaitsForCoAssignedDependency(t *testing.T) {
	for _, alloc := range []core.Allocator{core.NewGreedy(), reverseAllocator{core.NewGreedy()}} {
		t.Run(alloc.Name(), func(t *testing.T) {
			p, err := NewPlatform(Config{Allocator: alloc, ServiceTime: 1})
			if err != nil {
				t.Fatal(err)
			}
			// w0 reaches t0 after 10 time units; w1 is on t1's spot.
			for _, w := range []model.Worker{
				{Loc: geo.Pt(0, 0), Wait: 100, Velocity: 1, MaxDist: 100, Skills: model.NewSkillSet(0)},
				{Loc: geo.Pt(0, 1), Wait: 100, Velocity: 1, MaxDist: 100, Skills: model.NewSkillSet(1)},
			} {
				if _, err := p.AddWorker(w); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := p.AddTask(model.Task{Loc: geo.Pt(10, 0), Wait: 100, Requires: 0}); err != nil {
				t.Fatal(err)
			}
			if _, err := p.AddTask(model.Task{Loc: geo.Pt(0, 1), Wait: 100, Requires: 1, Deps: []model.TaskID{0}}); err != nil {
				t.Fatal(err)
			}
			out, err := p.Tick(0)
			if err != nil {
				t.Fatal(err)
			}
			if len(out.Assigned) != 2 {
				t.Fatalf("assigned %v, want both tasks", out.Assigned)
			}
			p.mu.Lock()
			defer p.mu.Unlock()
			// t0 finishes at 10+1; t1 waits for it, then takes 1 more.
			if f0, f1 := p.finishAt[0], p.finishAt[1]; f0 != 11 || f1 != 12 {
				t.Errorf("finish times t0=%v t1=%v, want 11 and 12", f0, f1)
			}
			if busy := p.wstate[1].busyUntil; busy != 12 {
				t.Errorf("w1 busy until %v, want 12", busy)
			}
		})
	}
}

// repeatAllocator lists every pair of its inner allocator twice, the second
// time with the next batch worker, and once task 0 is assigned it
// re-dispatches task 0 on every batch, each time to another batch worker.
type repeatAllocator struct {
	inner core.Allocator
	calls int
}

func (r *repeatAllocator) Name() string { return "Repeat" }

func (r *repeatAllocator) Assign(b *core.Batch) *model.Assignment {
	r.calls++
	a := r.inner.Assign(b)
	n := len(a.Pairs)
	for _, pair := range a.Pairs[:n] {
		wi := (b.WorkerIndex(pair.Worker) + 1) % len(b.Workers)
		a.Add(b.Workers[wi].W.ID, pair.Task)
	}
	if b.Satisfied.Has(0) {
		a.Add(b.Workers[r.calls%len(b.Workers)].W.ID, 0)
	}
	return a
}

// TestAssignmentViewFollowsRepeatedDispatch drives an allocator that
// dispatches tasks twice, within a batch and across batches. The served
// assignment keeps one pair per task, the last dispatch's, exactly as the
// assigned map (and so the snapshot) does; a tick whose only dispatch
// re-assigns task 0 leaves the log's length alone and must still show;
// and views published earlier keep the state of their tick even when read
// only later.
func TestAssignmentViewFollowsRepeatedDispatch(t *testing.T) {
	p, err := NewPlatform(Config{Allocator: &repeatAllocator{inner: core.NewGreedy()}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := p.AddWorker(model.Worker{
			Loc: geo.Pt(float64(i), 0), Wait: 100, Velocity: 10, MaxDist: 1000,
			Skills: model.NewSkillSet(0),
		}); err != nil {
			t.Fatal(err)
		}
	}
	fromMap := func() string {
		p.mu.Lock()
		defer p.mu.Unlock()
		a := model.NewAssignment()
		for task, w := range p.assigned {
			a.Add(w, task)
		}
		a.Sort()
		return a.String()
	}
	var want []string
	var views []*readView
	for k := 0; k < 6; k++ {
		tasks := []model.Task{
			{Loc: geo.Pt(0, 1), Start: float64(k), Wait: 100, Requires: 0},
			{Loc: geo.Pt(1, 1), Start: float64(k), Wait: 100, Requires: 0},
		}
		if k >= 4 {
			// Nobody has skill 3: the tick's only valid dispatch is task 0.
			tasks = []model.Task{{Start: float64(k), Wait: 100, Requires: 3}}
		}
		for _, task := range tasks {
			if _, err := p.AddTask(task); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := p.Tick(float64(k)); err != nil {
			t.Fatal(err)
		}
		want = append(want, fromMap())
		views = append(views, p.view.Load())
	}
	if want[4] == want[3] || want[5] == want[4] {
		t.Fatalf("re-dispatch ticks did not change the assignment: %v", want[3:])
	}
	if got := p.Assignments().String(); got != want[5] {
		t.Errorf("Assignments %s, assigned map %s", got, want[5])
	}
	for k, v := range views {
		if got := v.assign.assignment().String(); got != want[k] {
			t.Errorf("view of tick %d: served %s, assigned map then %s", k, got, want[k])
		}
	}
}
