package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dasc/internal/gen"
	"dasc/internal/model"
	"dasc/internal/obs"
)

// batchGrid returns the simulator's batch times for in: every interval from
// the earliest appearance until the first time at or past the horizon.
func batchGrid(in *model.Instance, interval float64) []float64 {
	horizon, start := 0.0, math.Inf(1)
	for i := range in.Workers {
		horizon = math.Max(horizon, in.Workers[i].Expiry())
		start = math.Min(start, in.Workers[i].Start)
	}
	for i := range in.Tasks {
		horizon = math.Max(horizon, in.Tasks[i].Deadline())
		start = math.Min(start, in.Tasks[i].Start)
	}
	var grid []float64
	for k := 0; ; k++ {
		now := start + float64(k)*interval
		grid = append(grid, now)
		if now >= horizon {
			return grid
		}
	}
}

func kernelInstance(t *testing.T, seed int64) *model.Instance {
	t.Helper()
	c := gen.DefaultSynthetic().Scale(0.02) // 100×100, arrivals spread over time
	c.Seed = seed
	in, err := gen.Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// sameBooks fails unless both kernels hold bit-identical worker states and
// task books for every registered worker and task.
func sameBooks(t *testing.T, in *model.Instance, a, b *Kernel) {
	t.Helper()
	for i := range in.Workers {
		if wa, wb := a.Worker(&in.Workers[i]), b.Worker(&in.Workers[i]); wa != wb {
			t.Fatalf("worker %d: %+v vs %+v", i, wa, wb)
		}
	}
	for i := range in.Tasks {
		if ta, tb := a.Task(model.TaskID(i)), b.Task(model.TaskID(i)); ta != tb {
			t.Fatalf("task %d: %+v vs %+v", i, ta, tb)
		}
	}
}

// TestKernelCacheMatchesScratch: with VerifyEngineCache on, every step of a
// kernel over every allocator must pass the check of its candidate engine
// against the brute-force scan, and must step bit-identically to a kernel
// with the check off: the same results, dispatches, books and engine
// counters, so the check only reads.
func TestKernelCacheMatchesScratch(t *testing.T) {
	for _, seed := range []int64{5, 12} {
		in := kernelInstance(t, seed)
		grid := batchGrid(in, 3)
		for _, name := range AllNames() {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				alloc1, _ := NewByName(name, 3)
				alloc2, _ := NewByName(name, 3)
				checked := NewKernel(KernelConfig{Allocator: alloc1, ServiceTime: 2, VerifyEngineCache: true})
				plain := NewKernel(KernelConfig{Allocator: alloc2, ServiceTime: 2})
				steps, dispatched := 0, 0
				for k, now := range grid {
					recC, recP := obs.NewBatchRec(k, now), obs.NewBatchRec(k, now)
					got, err := checked.Step(in, now, recC)
					if err != nil {
						t.Fatal(err)
					}
					want, err := plain.Step(in, now, recP)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("t=%v: checked step diverged:\nchecked: %+v\nplain:   %+v", now, got, want)
					}
					sameBooks(t, in, checked, plain)
					if tc, tp := counters(recC.Finish()), counters(recP.Finish()); tc != tp {
						t.Fatalf("t=%v: the check moved the batch counters: %+v vs %+v", now, tc, tp)
					}
					if got.Valid != nil {
						steps++
					}
					dispatched += len(got.Dispatches)
				}
				if steps < 2 || dispatched == 0 {
					t.Fatalf("%d allocated batches, %d dispatches: the batch loop was not exercised", steps, dispatched)
				}
			})
		}
	}
}

// counters is a batch trace without the fields that vary run to run: the
// wall-clock phase timings.
func counters(tr obs.BatchTrace) obs.BatchTrace {
	tr.IndexBuildMS, tr.AllocMS, tr.DispatchMS = 0, 0, 0
	return tr
}

// doomedAt is the brute-force retirement rule: the tasks with a
// dependency, at any depth, that is botched or unassigned past its deadline
// at now, by the kernel's books. It iterates to a fixpoint over the whole
// registry, so it assumes neither closed dependency sets nor dependencies
// on lower IDs.
func doomedAt(in *model.Instance, k *Kernel, now float64) model.TaskFlags {
	gone := make(model.TaskFlags, len(in.Tasks))
	for i := range in.Tasks {
		tb := k.Task(model.TaskID(i))
		gone[i] = !tb.Assigned && (tb.Botched || in.Tasks[i].Deadline() < now)
	}
	doomed := make(model.TaskFlags, len(in.Tasks))
	for changed := true; changed; {
		changed = false
		for i := range in.Tasks {
			for _, dep := range in.Tasks[i].Deps {
				if !doomed[i] && (gone[dep] || doomed[dep]) {
					doomed[i], changed = true, true
				}
			}
		}
	}
	return doomed
}

// TestKernelPopulationMatchesFullScan checks, before every step, the
// incremental population against a full registry scan over the kernel's
// books — entry for entry and in registration order — and, after it, that
// the population kept exactly what was live when the step began. For a
// dependency-aware allocator the scan leaves out every appeared task that
// doomedAt names; an oblivious one is still offered them.
//
// Past the generated instance, the cases stress the arrival queue: task
// start times shuffled so they do not rise with ID; registrations that
// arrive between steps, many of them starting later; and a rogue
// allocator that dispatches tasks before they start, some validly and
// some botched, whose dependants must retire at the same batch as under a
// full scan — also when the run continues on a kernel restored from the
// books half way, which admits those tasks already settled.
func TestKernelPopulationMatchesFullScan(t *testing.T) {
	base := kernelInstance(t, 5)
	shuffled := shuffledTaskStarts(base, 5)
	cases := []struct {
		name    string
		in      *model.Instance
		grow    bool // register the instance a slice at a time
		rogue   bool // dispatch not-yet-started tasks
		restore bool // continue on a restored kernel half way
	}{
		{"", base, false, false, false},
		{"ShuffledStarts/", shuffled, false, false, false},
		{"ArrivingRegistrations/", shuffled, true, false, false},
		{"EarlyDispatch/", shuffled, false, true, false},
		{"RestoredAfterEarlyDispatch/", shuffled, false, true, true},
	}
	for _, c := range cases {
		for _, name := range []string{NameGreedy, NameGG, NameClosest, NameRandom} {
			t.Run(c.name+name, func(t *testing.T) {
				alloc, _ := NewByName(name, 5)
				var rogue *earlyDispatcher
				if c.rogue {
					rogue = &earlyDispatcher{Allocator: alloc}
					alloc = rogue
				}
				checkPopulation(t, c.in, alloc, c.grow, c.restore)
				if rogue != nil && (rogue.valid == 0 || rogue.botched == 0) {
					t.Fatalf("%d valid and %d botched early dispatches: the wake was not exercised", rogue.valid, rogue.botched)
				}
			})
		}
	}
}

// checkPopulation steps a kernel over full's batch grid and checks its
// population against the full scan around every step. With grow, the
// kernel sees a registry that gains a share of full's workers and tasks
// before each step, in ID order. With restore, a fresh kernel restored
// from the books takes over half way.
func checkPopulation(t *testing.T, full *model.Instance, alloc Allocator, grow, restore bool) {
	t.Helper()
	aware := alloc.DependencyAware()
	k := NewKernel(KernelConfig{Allocator: alloc, ServiceTime: 2})
	botched, retired, offered, queued := 0, 0, 0, 0
	grid := batchGrid(full, 3)
	for step, now := range grid {
		if restore && step == len(grid)/2 {
			k = restoredKernel(full, k)
		}
		in := full
		if grow {
			view := *full
			view.Workers = full.Workers[:len(full.Workers)*(step+1)/len(grid)]
			view.Tasks = full.Tasks[:len(full.Tasks)*(step+1)/len(grid)]
			in = &view
		}
		var wantW []*model.Worker
		var wantT []*model.Task
		liveW, liveT := 0, 0
		doomed := doomedAt(in, k, now)
		for i := range in.Workers {
			w := &in.Workers[i]
			if now <= w.Expiry() {
				liveW++
			}
			if w.Start <= now && now <= w.Expiry() && k.Worker(w).BusyUntil <= now {
				wantW = append(wantW, w)
			}
		}
		for i := range in.Tasks {
			task := &in.Tasks[i]
			if tb := k.Task(task.ID); tb.Assigned || tb.Botched || task.Deadline() < now {
				continue
			}
			if task.Start > now {
				liveT++
				continue
			}
			switch {
			case !doomed.Has(task.ID):
			case aware:
				retired++
				continue
			default:
				offered++
			}
			liveT++
			wantT = append(wantT, task)
		}
		k.grow(in)
		bws, tasks := k.population(in, now)
		queued += k.pop.waitW.len() + k.pop.waitT.len()
		var gotW []*model.Worker
		for i := range bws {
			gotW = append(gotW, bws[i].W)
			if ws := k.Worker(bws[i].W); bws[i].Loc != ws.Loc || bws[i].DistBudget != bws[i].W.MaxDist-ws.DistUsed {
				t.Fatalf("t=%v: batch worker %+v does not carry its state %+v", now, bws[i], ws)
			}
		}
		// slices.Equal: the kernel's population slices are its arena's,
		// empty rather than nil in an empty batch.
		if !slices.Equal(gotW, wantW) || !slices.Equal(tasks, wantT) {
			t.Fatalf("t=%v: population (%d workers, %d tasks) differs from the full scan (%d, %d)",
				now, len(gotW), len(tasks), len(wantW), len(wantT))
		}
		st, err := k.Step(in, now, nil)
		if err != nil {
			t.Fatal(err)
		}
		if st.Workers != len(wantW) || st.Tasks != len(wantT) {
			t.Fatalf("t=%v: step allocated %d workers %d tasks, full scan %d and %d",
				now, st.Workers, st.Tasks, len(wantW), len(wantT))
		}
		if w, tk := k.Live(); w != liveW || tk != liveT {
			t.Fatalf("t=%v: population holds %d workers %d tasks, live set was %d and %d", now, w, tk, liveW, liveT)
		}
		for _, d := range st.Dispatches {
			if !d.Valid {
				botched++
			}
		}
	}
	if alloc.Name() == NameClosest && botched == 0 {
		t.Fatal("no botched dispatch: the botched drop rule was not exercised")
	}
	if retired+offered == 0 {
		t.Fatal("no doomed task: the retirement rule was not exercised")
	}
	if queued == 0 {
		t.Fatal("no entry ever waited in the arrival queue")
	}
}

// restoredKernel returns a kernel with k's configuration, restored from
// copies of k's books over in's registries.
func restoredKernel(in *model.Instance, k *Kernel) *Kernel {
	workers := make([]WorkerState, len(in.Workers))
	for i := range in.Workers {
		workers[i] = k.Worker(&in.Workers[i])
	}
	tasks := make([]TaskBook, len(in.Tasks))
	for i := range in.Tasks {
		tasks[i] = k.Task(model.TaskID(i))
	}
	r := NewKernel(k.cfg)
	r.Restore(workers, tasks)
	return r
}

// shuffledTaskStarts returns a copy of in whose task start times are
// permuted at random, so they no longer rise with ID; each task keeps its
// waiting time and dependencies.
func shuffledTaskStarts(in *model.Instance, seed int64) *model.Instance {
	out := *in
	out.Tasks = slices.Clone(in.Tasks)
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out.Tasks), func(i, j int) {
		out.Tasks[i].Start, out.Tasks[j].Start = out.Tasks[j].Start, out.Tasks[i].Start
	})
	return &out
}

// earlyDispatcher adds to its allocator's assignment, while a batch has a
// worker to spare, one pair naming a task that has not started yet: in
// turn a task without dependencies, which the fixpoint keeps valid, and a
// task with a dependency nobody is assigned, which it botches. Botched
// picks prefer tasks some later task depends on, so their retirement
// reaches dependants.
type earlyDispatcher struct {
	Allocator
	used           model.TaskFlags
	valid, botched int
}

func (r *earlyDispatcher) Assign(b *Batch) *model.Assignment {
	out := r.Allocator.Assign(b)
	now := b.Workers[0].ReadyAt
	wi := slices.IndexFunc(b.Workers, func(bw BatchWorker) bool {
		return !slices.ContainsFunc(out.Pairs, func(p model.Pair) bool { return p.Worker == bw.W.ID })
	})
	if wi < 0 {
		return out
	}
	wantDeps := r.valid > r.botched
	pick := -1
	for i := range b.In.Tasks {
		t := &b.In.Tasks[i]
		if t.Start <= now || r.used.Has(t.ID) || (len(t.Deps) > 0) != wantDeps {
			continue
		}
		if pick < 0 || wantDeps && hasDependant(b.In, t.ID) && !hasDependant(b.In, model.TaskID(pick)) {
			pick = i
		}
	}
	if pick < 0 {
		return out
	}
	r.used.Set(model.TaskID(pick))
	if wantDeps {
		r.botched++
	} else {
		r.valid++
	}
	out.Pairs = append(out.Pairs, model.Pair{Worker: b.Workers[wi].W.ID, Task: model.TaskID(pick)})
	return out
}

// hasDependant reports whether some task of in depends on id.
func hasDependant(in *model.Instance, id model.TaskID) bool {
	for i := range in.Tasks {
		if slices.Contains(in.Tasks[i].Deps, id) {
			return true
		}
	}
	return false
}

// unaware reports its allocator as dependency-oblivious, so the kernel
// keeps offering it the tasks it would otherwise retire.
type unaware struct{ Allocator }

func (unaware) DependencyAware() bool { return false }

// TestKernelRetirementKeepsOutcome: a doomed task can never be validly
// assigned, and Greedy, DFS and ExactDP never let one change what else they
// pick, so retiring doomed tasks must leave their valid pairs and dispatch
// records bit-identical, batch for batch, to a kernel that keeps offering
// them; only the batches' task counts shrink.
func TestKernelRetirementKeepsOutcome(t *testing.T) {
	allocs := map[string]func() Allocator{
		NameGreedy: func() Allocator { return NewGreedy() },
		NameDFS:    func() Allocator { return NewDFS(DFSOptions{}) },
		"ExactDP":  func() Allocator { return NewExactDP() },
	}
	for _, seed := range []int64{1, 2, 3, 4} {
		in := kernelInstance(t, seed)
		grid := batchGrid(in, 3)
		for name, mk := range allocs {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				retiring := NewKernel(KernelConfig{Allocator: mk(), ServiceTime: 2})
				offering := NewKernel(KernelConfig{Allocator: unaware{mk()}, ServiceTime: 2})
				withheld, valid := 0, 0
				for _, now := range grid {
					got, err := retiring.Step(in, now, nil)
					if err != nil {
						t.Fatal(err)
					}
					want, err := offering.Step(in, now, nil)
					if err != nil {
						t.Fatal(err)
					}
					// A batch left with only doomed tasks is not allocated
					// at all, so compare pair lists, not assignments.
					if !reflect.DeepEqual(validPairs(got), validPairs(want)) || !reflect.DeepEqual(dispatches(got), dispatches(want)) {
						t.Fatalf("t=%v: retiring kernel diverged:\nretiring: %+v\noffering: %+v", now, got, want)
					}
					withheld += want.Tasks - got.Tasks
					valid += len(validPairs(got))
				}
				if withheld == 0 || valid == 0 {
					t.Fatalf("%d task-batches withheld, %d valid pairs: the retirement was not exercised", withheld, valid)
				}
			})
		}
	}
}

// taskRecorder appends the task IDs of every batch its allocator is handed.
type taskRecorder struct {
	Allocator
	tasks []model.TaskID
}

func (r *taskRecorder) Assign(b *Batch) *model.Assignment {
	for _, t := range b.Tasks {
		r.tasks = append(r.tasks, t.ID)
	}
	return r.Allocator.Assign(b)
}

// TestKernelRetiresHandBuiltDoom steps a hand-built instance whose
// dependency sets are not closed and where t1 depends on a higher ID. t0
// expires unassigned at t=1, which dooms t3 (depends on t0), t1 (on t3)
// and t2 (on t1). The walk sees t3's doom at once, t1's one batch late (t3
// comes after it) and t2's through t1's retirement. Around every step it
// checks against doomedAt that nothing live is retired and that a task
// doomed at the previous batch is gone from this one. A Greedy kernel that
// keeps offering every task must make the same valid pairs and never
// validly assign a task the retiring kernel dropped.
func TestKernelRetiresHandBuiltDoom(t *testing.T) {
	in := &model.Instance{}
	for i := 0; i < 6; i++ {
		in.Workers = append(in.Workers, model.Worker{
			ID: model.WorkerID(i), Wait: 100, Velocity: 1, MaxDist: 1000, Skills: model.NewSkillSet(0),
		})
	}
	for i, task := range []model.Task{
		{Wait: 1, Requires: 9}, // nobody has skill 9: t0 expires unassigned
		{Wait: 100, Deps: []model.TaskID{3}},
		{Wait: 100, Deps: []model.TaskID{1}},
		{Wait: 100, Deps: []model.TaskID{0}},
		{Wait: 100},
		{Wait: 100, Deps: []model.TaskID{4}},
	} {
		task.ID = model.TaskID(i)
		in.Tasks = append(in.Tasks, task)
	}
	if err := in.Validate(); err != nil {
		t.Fatal(err)
	}
	rec := &taskRecorder{Allocator: NewGreedy()}
	k := NewKernel(KernelConfig{Allocator: rec, ServiceTime: 1})
	ref := NewKernel(KernelConfig{Allocator: unaware{NewGreedy()}, ServiceTime: 1})
	want := map[float64][]model.TaskID{0: {0, 1, 2, 3, 4, 5}, 2: {1, 2}, 4: nil, 6: nil}
	var prevDoomed model.TaskFlags
	retired := model.TaskFlags{}
	for _, now := range []float64{0, 2, 4, 6} {
		doomed := doomedAt(in, k, now)
		var live []model.TaskID
		for i := range in.Tasks {
			task := &in.Tasks[i]
			if tb := k.Task(task.ID); !tb.Assigned && !tb.Botched && task.Deadline() >= now && task.Start <= now {
				live = append(live, task.ID)
			}
		}
		rec.tasks = nil
		st, err := k.Step(in, now, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(rec.tasks, want[now]) {
			t.Fatalf("t=%v: batch tasks %v, want %v", now, rec.tasks, want[now])
		}
		offered := model.TaskFlags{}
		for _, id := range rec.tasks {
			offered.Set(id)
			if prevDoomed.Has(id) {
				t.Errorf("t=%v: t%d was doomed at the previous batch and is still offered", now, id)
			}
		}
		for _, id := range live {
			switch {
			case offered.Has(id):
			case !doomed.Has(id):
				t.Errorf("t=%v: live t%d retired", now, id)
			default:
				retired.Set(id)
			}
		}
		refSt, err := ref.Step(in, now, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range refSt.Dispatches {
			if d.Valid && retired.Has(d.Pair.Task) {
				t.Errorf("t=%v: retired t%d validly assigned by the kernel that kept it", now, d.Pair.Task)
			}
		}
		if !reflect.DeepEqual(validPairs(st), validPairs(refSt)) {
			t.Errorf("t=%v: valid pairs %v, kernel that kept doomed tasks %v", now, st.Valid, refSt.Valid)
		}
		prevDoomed = doomed
	}
	for _, id := range []model.TaskID{1, 2, 3} {
		if !retired.Has(id) {
			t.Errorf("t%d never retired", id)
		}
	}
}

// validPairs returns a step's valid pairs, nil when there are none.
func validPairs(st *StepResult) []model.Pair {
	if st.Valid == nil || st.Valid.Size() == 0 {
		return nil
	}
	return st.Valid.Pairs
}

// dispatches returns a step's dispatch records, nil when there are none.
func dispatches(st *StepResult) []Dispatch {
	if len(st.Dispatches) == 0 {
		return nil
	}
	return st.Dispatches
}
