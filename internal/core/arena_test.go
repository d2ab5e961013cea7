package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"dasc/internal/gen"
	"dasc/internal/geo"
	"dasc/internal/matching"
	"dasc/internal/model"
	"dasc/internal/obs"
)

// fill overwrites every element of s up to its capacity with v.
func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// stale fills a stamp table with the newest stamp already handed out: the
// worst garbage the table's invariant (every entry below next) allows.
func stale(s *idStamps) {
	if s.next > 0 {
		fill(s.tag, s.next-1)
	}
}

// poison overwrites every buffer the arena holds with garbage, up to each
// buffer's capacity: NaN floats, negative indexes, nil pointers, set flags,
// and in the stamp tables the newest stale stamp. A step that still reads
// arena memory a previous step left behind, or a result that aliases arena
// memory, then diverges from an unpoisoned run.
func (a *stepArena) poison() {
	nan := math.NaN()
	junk32 := []int32{-7, -7}
	fill(a.workers, BatchWorker{Loc: geo.Pt(nan, nan), ReadyAt: nan, DistBudget: nan})
	fill(a.tasks, nil)
	fill(a.admit.due, -7)
	fill(a.admit.fresh, waiting{due: nan, id: -7})
	a.batch = Batch{}

	stale(&a.taskIDs.idStamps)
	fill(a.taskIDs.last, -7)
	stale(&a.workerIDs)

	a.idx.b = nil
	fill(a.idx.strategies, junk32)
	fill(a.idx.costs, []float64{nan})
	fill(a.idx.candidates, junk32)
	fill(a.idx.candBacking, -7)
	fill(a.idx.candCount, -7)
	for i := range a.scratches[:cap(a.scratches)] {
		sc := &a.scratches[i]
		fill(sc.rows, -7)
		fill(sc.costs, nan)
		sc.rows, sc.costs = sc.rows[:cap(sc.rows)], sc.costs[:cap(sc.costs)]
	}
	a.buildNext.Store(1 << 40)
	fill(a.buckets.off, -7)
	fill(a.buckets.dat, -7)
	a.buckets.mask = model.NewSkillSet(0, 3, 64, 200)
	fill(a.pairs, ^uint64(0))
	a.built = candidateBuild(99)
	// a.holders and a.force are not the step's: the holders are the
	// kernel's, and force is a test's setting.

	w := &a.wire
	for _, s := range [][]int32{w.depOff, w.depDat, w.dependantOff, w.dependantDat, w.depCount, w.satisfiedDeps, a.wireCnt} {
		fill(s, -7)
	}
	fill(w.deadTask, true)
	fill(w.weight, nan)

	fill(a.sets, atSet{anchor: -7, members: []int{-7}, alive: -7, weight: nan})
	fill(a.setPtrs, nil)
	fill(a.members, -7)

	g := &a.greedy
	fill(g.candidates, junk32)
	fill(g.taskOf, -7)
	fill(g.assigned, true)
	fill(g.free, true)
	fill(g.byTaskOff, -7)
	fill(g.byTaskDat, nil)
	fill(g.heap.entries, setEntry{weight: nan})
	fill(g.requeued, true)
	fill(g.requeue, nil)
	fill(g.alive, -7)
	stale(&g.cols)
	fill(g.rows, []int{-7})
	fill(g.adj, -7)
	fill(g.matched, -7)
	fill(g.trimmed, -7)
	fill(g.cands, staffCand{wi: -7, cost: nan})
	fill(g.cost, []float64{nan})
	fill(g.costDat, nan)
	fill(g.staff, -7)
	g.bg = matching.Bipartite{Adj: [][]int{{0}, {0}}, N: 1}
	// The matching workspace's arrays are not reachable from here: solving
	// garbage leaves garbage in them.
	g.match.MaxMatchingHK(&matching.Bipartite{Adj: [][]int{{2, 0}, {1}, {2}}, N: 3})
	g.match.Hungarian([][]float64{{nan, 1, 2}, {3, 0, nan}})

	gs := &a.game
	gs.b, gs.depWiring, gs.alpha = nil, nil, nan
	fill(gs.strategy, -7)
	fill(gs.claims, -7)
	fill(gs.claimOff, -7)
	fill(gs.claimDat, -7)
	fill(gs.claimCur, -7)

	wl := &a.wl
	fill(wl.liveDeficit, -7)
	fill(wl.liveDeps, junk32)
	fill(wl.liveDat, -7)
	fill(wl.selfDep, true)
	stale(&wl.mark)
	fill(wl.dirty, false)
	fill(wl.curU, nan)
	fill(wl.curUValid, true)
	fill(wl.movU, nan)
	fill(wl.movUValid, true)

	fill(a.trace.UpdateRatios, nan)
	a.trace = GameTrace{Rounds: -7, UpdateRatios: a.trace.UpdateRatios, FinalUtility: nan}
	fill(a.seed, model.Pair{Worker: -7, Task: -7})
	fill(a.taken, true)
	fill(a.avail, -7)
	if a.rnd != nil {
		a.rnd.Seed(-12345)
	}

	stale(&a.pairTasks)
	fill(a.firstPos, -7)
	fill(a.nextPos, -7)
	fill(a.ordered, model.Pair{Worker: -7, Task: -7})
}

// fig10MaxInstance generates fig10's largest point (Table V defaults with
// 8K tasks and 5K workers) for the given seed.
func fig10MaxInstance(tb testing.TB, seed int64) *model.Instance {
	tb.Helper()
	c := gen.DefaultSynthetic()
	c.Tasks = 8000
	c.Seed = seed
	in, err := gen.Synthetic(c)
	if err != nil {
		tb.Fatal(err)
	}
	return in
}

// arenaCase is one allocator the arena tests step: the paper's six over
// fig10-max, and the exact solvers over Table VI-sized instances.
type arenaCase struct {
	name  string
	alloc func() Allocator
	exact bool
}

func arenaCases() []arenaCase {
	var cs []arenaCase
	for _, name := range AllNames() {
		cs = append(cs, arenaCase{name, func() Allocator { a, _ := NewByName(name, 3); return a }, false})
	}
	return append(cs,
		// A node cap keeps the search's cost bounded per batch; a capped
		// search is as deterministic as a full one.
		arenaCase{NameDFS, func() Allocator { return NewDFS(DFSOptions{MaxNodes: 200_000}) }, true},
		arenaCase{"ExactDP", func() Allocator { return NewExactDP() }, true},
	)
}

// TestKernelArenaPoison steps two kernels in lockstep over fig10-max seeds
// 1–4 (and Table VI-sized instances for the exact solvers), one of them
// with its step arena poisoned after every step. Every step result must be
// identical, and so must the books: nothing may keep arena memory from one
// step to the next, and no result may alias it. Under the race detector,
// which is ten times slower, seed 1 alone runs the matrix.
func TestKernelArenaPoison(t *testing.T) {
	seeds := int64(4)
	if raceEnabled {
		seeds = 1
	}
	for seed := int64(1); seed <= seeds; seed++ {
		big := fig10MaxInstance(t, seed)
		c := gen.SmallScale()
		c.Seed = seed
		small, err := gen.Synthetic(c)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range arenaCases() {
			in := big
			if e.exact {
				in = small
			}
			t.Run(fmt.Sprintf("%s/seed%d", e.name, seed), func(t *testing.T) {
				clean := NewKernel(KernelConfig{Allocator: e.alloc(), ServiceTime: 1})
				poisoned := NewKernel(KernelConfig{Allocator: e.alloc(), ServiceTime: 1})
				steps := 0
				for _, now := range batchGrid(in, 5) {
					got, err := poisoned.Step(in, now, nil)
					if err != nil {
						t.Fatal(err)
					}
					poisoned.arena.poison()
					want, err := clean.Step(in, now, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("t=%v: poisoned step diverged:\npoisoned: %+v\nclean:    %+v", now, got, want)
					}
					if got.Valid != nil && got.Valid.Size() > 0 {
						steps++
					}
				}
				if steps < 2 {
					t.Fatalf("%d steps assigned anything: the batch loop was not exercised", steps)
				}
				sameBooks(t, in, poisoned, clean)
			})
		}
	}
}

// indexSnapshot is a deep copy of a batch's candidate engine.
type indexSnapshot struct {
	strategies, candidates [][]int32
	costs                  [][]float64
}

// indexRecorder copies every batch's candidate engine before its
// allocator runs, and counts the builds that made them.
type indexRecorder struct {
	Allocator
	snaps []indexSnapshot
	built map[candidateBuild]int
}

func (r *indexRecorder) Assign(b *Batch) *model.Assignment {
	idx := b.Index()
	var s indexSnapshot
	for wi := range b.Workers {
		s.strategies = append(s.strategies, slices.Clone(idx.strategies[wi]))
		s.costs = append(s.costs, slices.Clone(idx.costs[wi]))
	}
	for ti := range b.Tasks {
		s.candidates = append(s.candidates, slices.Clone(idx.candidates[ti]))
	}
	r.snaps = append(r.snaps, s)
	r.built[b.arena.built]++
	return r.Allocator.Assign(b)
}

// TestKernelCandidateBuildsAgree steps three kernels in lockstep over the
// allocator matrix — one pinned to the worker-major scan, one to the
// skill-first build, one left to the size rule — on fig10-max, whose late
// batches hold a handful of tasks among hundreds of workers, on a
// small-scale instance with a ten-skill universe, where every skill has
// many holders, and on the Meetup substitute, with its clustered tasks and
// 400-tag universe. Every batch's strategy sets, travel costs and candidate
// lists must be bit-identical across the three, and so must every step
// result, every batch's examined and admitted counts and the books: both
// builds probe every batch worker's skill pool. On fig10-max the size rule
// must pick each build at least once, and on the small instance the
// worker-major scan must win at least once. Under the race detector seed 1
// of fig10-max runs G-G alone.
func TestKernelCandidateBuildsAgree(t *testing.T) {
	big := fig10MaxInstance(t, 1)
	c := gen.SmallScale()
	c.Seed = 1
	small, err := gen.Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	meetup, err := gen.Meetup(gen.DefaultMeetup())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range arenaCases() {
		for _, inst := range []struct {
			name string
			in   *model.Instance
		}{{"fig10-max", big}, {"small", small}, {"meetup", meetup}} {
			if e.exact && inst.in != small || raceEnabled && (e.exact || e.name != NameGG) {
				continue
			}
			t.Run(e.name+"/"+inst.name, func(t *testing.T) {
				var recs [3]*indexRecorder
				var ks [3]*Kernel
				for i, force := range []candidateBuild{buildWorkerMajor, buildSkillFirst, buildAuto} {
					recs[i] = &indexRecorder{Allocator: e.alloc(), built: map[candidateBuild]int{}}
					ks[i] = NewKernel(KernelConfig{Allocator: recs[i], ServiceTime: 1})
					ks[i].arena.force = force
				}
				examined := int64(0)
				for _, now := range batchGrid(inst.in, 2) {
					var sts [3]*StepResult
					var trs [3]obs.BatchTrace
					for i, k := range ks {
						rec := obs.NewBatchRec(0, now)
						if sts[i], err = k.Step(inst.in, now, rec); err != nil {
							t.Fatal(err)
						}
						trs[i] = rec.Finish()
					}
					examined += trs[0].CandidatesExamined
					for i := 1; i < 3; i++ {
						if !reflect.DeepEqual(sts[i], sts[0]) {
							t.Fatalf("t=%v: kernel %d stepped otherwise than the worker-major one:\n%+v\n%+v", now, i, sts[i], sts[0])
						}
						if trs[i].CandidatesExamined != trs[0].CandidatesExamined || trs[i].CandidatesAdmitted != trs[0].CandidatesAdmitted {
							t.Fatalf("t=%v: kernel %d examined %d and admitted %d pairs, the worker-major one %d and %d", now, i,
								trs[i].CandidatesExamined, trs[i].CandidatesAdmitted, trs[0].CandidatesExamined, trs[0].CandidatesAdmitted)
						}
					}
				}
				for i := 1; i < 3; i++ {
					if !reflect.DeepEqual(recs[i].snaps, recs[0].snaps) {
						t.Fatalf("kernel %d built other candidate engines than the worker-major one", i)
					}
					sameBooks(t, inst.in, ks[i], ks[0])
				}
				built := recs[2].built
				t.Logf("%d batches: size rule chose worker-major %d, skill-first %d", len(recs[0].snaps), built[buildWorkerMajor], built[buildSkillFirst])
				switch {
				case len(recs[0].snaps) < 2 || examined == 0:
					t.Fatalf("%d batches allocated, %d pairs examined: the kernel was not exercised", len(recs[0].snaps), examined)
				case recs[0].built[buildWorkerMajor] != len(recs[0].snaps) || recs[1].built[buildSkillFirst] != len(recs[1].snaps):
					t.Fatal("a pinned kernel ran the other build")
				case inst.in == big && (built[buildWorkerMajor] == 0 || built[buildSkillFirst] == 0):
					t.Fatal("the size rule did not pick both builds on fig10-max")
				case inst.in == small && built[buildWorkerMajor] == 0:
					t.Fatal("the size rule never picked the worker-major scan on the small instance")
				}
			})
		}
	}
}

// TestKernelsStepConcurrently steps two kernels at once, one per goroutine,
// and requires each to match its serial run step for step: kernels share no
// state, so concurrent platforms cannot disturb each other.
func TestKernelsStepConcurrently(t *testing.T) {
	type run struct {
		in    *model.Instance
		alloc string
	}
	runs := []run{{fig10MaxInstance(t, 1), NameGG}, {fig10MaxInstance(t, 2), NameGame}}
	stepAll := func(r run) []*StepResult {
		a, _ := NewByName(r.alloc, 3)
		k := NewKernel(KernelConfig{Allocator: a, ServiceTime: 1})
		var out []*StepResult
		for _, now := range batchGrid(r.in, 5) {
			st, err := k.Step(r.in, now, nil)
			if err != nil {
				t.Error(err)
				return nil
			}
			out = append(out, st)
		}
		return out
	}
	serial := make([][]*StepResult, len(runs))
	for i, r := range runs {
		serial[i] = stepAll(r)
	}
	concurrent := make([][]*StepResult, len(runs))
	var wg sync.WaitGroup
	for i, r := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			concurrent[i] = stepAll(r)
		}()
	}
	wg.Wait()
	for i := range runs {
		if len(serial[i]) < 2 || !reflect.DeepEqual(concurrent[i], serial[i]) {
			t.Fatalf("%s: concurrent run of %d steps differs from its serial run of %d",
				runs[i].alloc, len(concurrent[i]), len(serial[i]))
		}
	}
}

// maxStepAllocs bounds a warm kernel step's mean heap allocations: the
// StepResult, its two assignments (a struct and a pair array each) and its
// dispatch list, the index build's work closure, and one closure per build
// goroutine, which runtime.NumCPU() bounds. The rest is slack for the rare
// geometric growth of an arena buffer when a batch outgrows every earlier
// one. None of it depends on the batch size.
func maxStepAllocs() float64 { return float64(10 + runtime.NumCPU()) }

// TestKernelStepAllocs steps a G-G kernel through a fig10-max run at batch
// interval 1 and pins the mean allocations per step after the first 10
// steps: the step arena leaves only what a step returns.
func TestKernelStepAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	in := fig10MaxInstance(t, 7)
	a, _ := NewByName(NameGG, 1)
	k := NewKernel(KernelConfig{Allocator: a})
	var ms runtime.MemStats
	var allocs, steps, pairs uint64
	for i, now := range batchGrid(in, 1) {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		st, err := k.Step(in, now, nil)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&ms)
		if i >= 10 {
			allocs += ms.Mallocs - before
			steps++
			if st.Valid != nil {
				pairs += uint64(st.Valid.Size())
			}
		}
	}
	if steps < 50 || pairs == 0 {
		t.Fatalf("%d warm steps with %d valid pairs: the run was not exercised", steps, pairs)
	}
	if mean := float64(allocs) / float64(steps); mean > maxStepAllocs() {
		t.Fatalf("warm steps allocate %.1f objects each on average, want at most %.0f", mean, maxStepAllocs())
	}
}

// BenchmarkKernelStepFig10Max measures a whole fig10-max run of G-G kernel
// steps at batch interval 1 (about 90 steps), allocations included.
func BenchmarkKernelStepFig10Max(b *testing.B) {
	in := fig10MaxInstance(b, 7)
	grid := batchGrid(in, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, _ := NewByName(NameGG, 1)
		k := NewKernel(KernelConfig{Allocator: a})
		for _, now := range grid {
			if _, err := k.Step(in, now, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(grid)), "steps/op")
}
