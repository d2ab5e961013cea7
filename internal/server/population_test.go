package server

import (
	"bytes"
	"reflect"
	"testing"

	"dasc/internal/core"
	"dasc/internal/geo"
	"dasc/internal/model"
)

// retiredAt is the brute-force retirement rule: when the platform's
// allocator is dependency-aware, the appeared tasks with a dependency, at
// any depth, that is botched or unassigned past its deadline at now, by the
// kernel's books, iterated to a fixpoint over the whole registry. The
// caller holds p.mu.
func retiredAt(p *Platform, now float64) model.TaskFlags {
	if !p.alloc.DependencyAware() {
		return nil
	}
	gone := make(model.TaskFlags, len(p.tasks))
	for i := range p.tasks {
		tb := p.kernel.Task(p.tasks[i].ID)
		gone[i] = !tb.Assigned && (tb.Botched || p.tasks[i].Deadline() < now)
	}
	doomed := make(model.TaskFlags, len(p.tasks))
	for changed := true; changed; {
		changed = false
		for i := range p.tasks {
			for _, dep := range p.tasks[i].Deps {
				if !doomed[i] && (gone[dep] || doomed[dep]) {
					doomed[i], changed = true, true
				}
			}
		}
	}
	for i := range p.tasks {
		doomed[i] = doomed[i] && p.tasks[i].Start <= now
	}
	return doomed
}

// oraclePopulation is the full-registry tick filter the server ran before
// the population became incremental, plus the retirement rule: every
// registered worker and task is tested against the batch predicates at now,
// reading the kernel's books. The incremental population must reproduce it
// entry for entry and in order, each worker carrying its dispatch state.
// retired counts the pending tasks the retirement rule left out. The caller
// holds p.mu.
func oraclePopulation(p *Platform, now float64) (workers []batchEntry, tasks []model.TaskID, retired int) {
	for i := range p.workers {
		w := &p.workers[i]
		ws := p.kernel.Worker(w)
		if w.Start > now || now > w.Expiry() || ws.BusyUntil > now {
			continue
		}
		workers = append(workers, batchEntry{ID: w.ID, Loc: ws.Loc, DistBudget: w.MaxDist - ws.DistUsed})
	}
	doomed := retiredAt(p, now)
	for i := range p.tasks {
		t := &p.tasks[i]
		if tb := p.kernel.Task(t.ID); tb.Assigned || tb.Botched || t.Start > now || t.Deadline() < now {
			continue
		}
		if doomed.Has(t.ID) {
			retired++
			continue
		}
		tasks = append(tasks, t.ID)
	}
	return workers, tasks, retired
}

// batchEntry is what a batch presents to the allocator about one worker.
type batchEntry struct {
	ID         model.WorkerID
	Loc        geo.Point
	DistBudget float64
}

// batchRecorder records the workers and tasks of every batch its allocator
// is handed; calls counts the batches since the last reset.
type batchRecorder struct {
	core.Allocator
	calls   int
	workers []batchEntry
	tasks   []model.TaskID
}

func (r *batchRecorder) reset() { r.calls, r.workers, r.tasks = 0, nil, nil }

func (r *batchRecorder) Assign(b *core.Batch) *model.Assignment {
	r.calls++
	for i := range b.Workers {
		bw := &b.Workers[i]
		r.workers = append(r.workers, batchEntry{ID: bw.W.ID, Loc: bw.Loc, DistBudget: bw.DistBudget})
	}
	for _, t := range b.Tasks {
		r.tasks = append(r.tasks, t.ID)
	}
	return r.Allocator.Assign(b)
}

// liveCounts counts, by full scan, the workers and tasks that can still
// reach some batch at or after now: workers not yet expired, tasks neither
// consumed, overdue nor retired. The caller holds p.mu.
func liveCounts(p *Platform, now float64) (workers, tasks int) {
	for i := range p.workers {
		if now <= p.workers[i].Expiry() {
			workers++
		}
	}
	retired := retiredAt(p, now)
	for i := range p.tasks {
		t := &p.tasks[i]
		if tb := p.kernel.Task(t.ID); !tb.Assigned && !tb.Botched && t.Deadline() >= now && !retired.Has(t.ID) {
			tasks++
		}
	}
	return workers, tasks
}

// checkBooks compares the assignment log with the kernel's task books: one
// entry per assigned task, naming the task's worker.
func checkBooks(t *testing.T, p *Platform, now float64) {
	t.Helper()
	p.mu.Lock()
	defer p.mu.Unlock()
	nAssigned := 0
	for i := range p.tasks {
		if p.kernel.Task(p.tasks[i].ID).Assigned {
			nAssigned++
		}
	}
	if len(p.assignLog) != nAssigned {
		t.Fatalf("t=%v: %d logged, %d assigned", now, len(p.assignLog), nAssigned)
	}
	for _, pair := range p.assignLog {
		if tb := p.kernel.Task(pair.Task); !tb.Assigned || tb.Worker != pair.Worker {
			t.Fatalf("t=%v: logged %v, kernel books %+v", now, pair, tb)
		}
	}
}

// TestTickPopulationMatchesFullScan runs the golden stream — registrations
// between ticks, ingest commits, a snapshot and a recovery — and, around
// every tick, checks the incremental population against the full-registry
// oracle. Before the tick it takes the oracle's population and the live set
// the tick's walk must keep; after it, it checks that the allocator was
// handed exactly the oracle's workers (with their locations and distance
// budgets) and tasks in registration order, what the kernel still holds,
// and the books. The dependency-aware allocators must see the retirement
// rule at work.
func TestTickPopulationMatchesFullScan(t *testing.T) {
	for _, alg := range []string{core.NameGreedy, core.NameGG, core.NameClosest} {
		t.Run(alg, func(t *testing.T) {
			rec := &batchRecorder{}
			wrap := func(a core.Allocator) core.Allocator {
				rec.Allocator = a
				return rec
			}
			var wantW []batchEntry
			var wantT []model.TaskID
			var liveW, liveT int
			ticks, allocated, retired := 0, 0, 0
			hook := func(t *testing.T, p *Platform, now float64, out *BatchOutcome) {
				if out == nil {
					p.mu.Lock()
					var r int
					wantW, wantT, r = oraclePopulation(p, now)
					retired += r
					liveW, liveT = liveCounts(p, now)
					p.mu.Unlock()
					rec.reset()
					return
				}
				ticks++
				if out.Workers != len(wantW) || out.Tasks != len(wantT) {
					t.Fatalf("t=%v: tick allocated %d workers %d tasks, oracle %d and %d",
						now, out.Workers, out.Tasks, len(wantW), len(wantT))
				}
				switch {
				case len(wantW) == 0 || len(wantT) == 0:
					if rec.calls != 0 {
						t.Fatalf("t=%v: allocator called on an empty batch", now)
					}
				case rec.calls != 1:
					t.Fatalf("t=%v: allocator called %d times", now, rec.calls)
				case !reflect.DeepEqual(rec.workers, wantW):
					t.Fatalf("t=%v: active workers\n got %v\nwant %v", now, rec.workers, wantW)
				case !reflect.DeepEqual(rec.tasks, wantT):
					t.Fatalf("t=%v: pending tasks\n got %v\nwant %v", now, rec.tasks, wantT)
				default:
					allocated++
				}
				// The walk ran before the tick's dispatches, so it kept
				// exactly what was live when the tick began.
				p.mu.Lock()
				w, tk := p.kernel.Live()
				p.mu.Unlock()
				if w != liveW || tk != liveT {
					t.Fatalf("t=%v: population holds %d workers %d tasks, live set was %d and %d",
						now, w, tk, liveW, liveT)
				}
				checkBooks(t, p, now)
			}
			runGoldenStream(t, alg, hook, wrap)
			if ticks != goldenTotalTicks {
				t.Fatalf("checked %d ticks, want %d", ticks, goldenTotalTicks)
			}
			if allocated < goldenTotalTicks/2 {
				t.Fatalf("only %d of %d ticks reached the allocator", allocated, ticks)
			}
			if aware := alg != core.NameClosest; aware != (retired > 0) {
				t.Fatalf("the retirement rule left out %d pending tasks over the stream (dependency-aware: %v)", retired, aware)
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
		w, tk := p.kernel.Live()
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

func (r reverseAllocator) Name() string          { return "Reverse" }
func (r reverseAllocator) DependencyAware() bool { return r.inner.DependencyAware() }

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
			if f0, f1 := p.kernel.Task(0).FinishAt, p.kernel.Task(1).FinishAt; f0 != 11 || f1 != 12 {
				t.Errorf("finish times t0=%v t1=%v, want 11 and 12", f0, f1)
			}
			if busy := p.kernel.Worker(&p.workers[1]).BusyUntil; busy != 12 {
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

func (r *repeatAllocator) Name() string          { return "Repeat" }
func (r *repeatAllocator) DependencyAware() bool { return r.inner.DependencyAware() }

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
// kernel's books (and so the snapshot) do; a tick whose only dispatch
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
	fromBooks := func() string {
		p.mu.Lock()
		defer p.mu.Unlock()
		a := model.NewAssignment()
		for i := range p.tasks {
			if tb := p.kernel.Task(p.tasks[i].ID); tb.Assigned {
				a.Add(tb.Worker, p.tasks[i].ID)
			}
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
		want = append(want, fromBooks())
		views = append(views, p.view.Load())
	}
	if want[4] == want[3] || want[5] == want[4] {
		t.Fatalf("re-dispatch ticks did not change the assignment: %v", want[3:])
	}
	if got := p.AssignmentsView().String(); got != want[5] {
		t.Errorf("Assignments %s, kernel books %s", got, want[5])
	}
	for k, v := range views {
		if got := v.assign.assignment().String(); got != want[k] {
			t.Errorf("view of tick %d: served %s, kernel books then %s", k, got, want[k])
		}
	}
}
