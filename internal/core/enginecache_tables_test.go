package core

import (
	"math"
	"math/rand"
	"testing"

	"dasc/internal/gen"
	"dasc/internal/model"
	"dasc/internal/obs"
)

// TestEngineCacheAdmittedWithinExamined: admitted counts only pairs the
// exact predicate admitted, so on every batch of an evolving run it stays
// within the pairs examined — through the cache (a full build, then
// incremental batches where cached survivors are memo hits) and through
// from-scratch builds of the same batches.
func TestEngineCacheAdmittedWithinExamined(t *testing.T) {
	rng := rand.New(rand.NewSource(520))
	in := randomInstance(rng, 60, 90, 5, true)
	specs := evolutionSpecs(in, 521, 10)
	for _, cached := range []bool{true, false} {
		cache := NewEngineCache()
		for k, s := range specs {
			b := NewBatch(in, s.bws, s.tasks, nil)
			rec := obs.NewBatchRec(k, 0)
			b.SetRecorder(rec)
			if cached {
				cache.Attach(b)
			} else {
				b.Index()
			}
			if err := b.VerifyIndex(); err != nil {
				t.Fatalf("cached=%v batch %d: %v", cached, k, err)
			}
			tr := rec.Finish()
			if tr.CandidatesAdmitted > tr.CandidatesExamined {
				t.Errorf("cached=%v batch %d: admitted %d > examined %d",
					cached, k, tr.CandidatesAdmitted, tr.CandidatesExamined)
			}
			if !cached || k == 0 {
				if tr.CandidatesAdmitted != int64(b.Index().FeasiblePairs()) {
					t.Errorf("cached=%v batch %d: full build admitted %d, FeasiblePairs %d",
						cached, k, tr.CandidatesAdmitted, b.Index().FeasiblePairs())
				}
			}
		}
		if cached && cache.Stats().WorkersReused == 0 {
			t.Fatal("the evolution never took the revalidation path")
		}
	}
}

// checkTablesWithin fails when a dense table outgrew the instance.
func checkTablesWithin(t *testing.T, c *EngineCache, in *model.Instance) {
	t.Helper()
	if len(c.slot) > len(in.Workers) || len(c.tag) > len(in.Tasks) {
		t.Fatalf("tables grew past the instance: %d worker slots for %d workers, %d task stamps for %d tasks",
			len(c.slot), len(in.Workers), len(c.tag), len(in.Tasks))
	}
}

// TestEngineCacheIDGuard: a batch carrying an ID the dense tables cannot
// index — negative, at or past the instance's worker or task count, or
// huge — is built from scratch, matches a fresh build, grows no table past
// the instance, and leaves the cache able to go incremental again. The
// same holds when the batch's index was built before Attach.
func TestEngineCacheIDGuard(t *testing.T) {
	rng := rand.New(rand.NewSource(522))
	in := randomInstance(rng, 20, 30, 3, false)
	static := NewStaticBatch(in)

	// odd copies the static batch with one worker or task ID replaced; the
	// copied structs keep every other parameter, so the batch stays valid
	// apart from the ID.
	odd := func(now float64, workerID *model.WorkerID, taskID *model.TaskID) *Batch {
		bws := make([]BatchWorker, len(static.Workers))
		for i, bw := range static.Workers {
			bw.ReadyAt = now
			bws[i] = bw
		}
		tasks := append([]*model.Task(nil), static.Tasks...)
		if workerID != nil {
			w := *bws[3].W
			w.ID = *workerID
			bws[3].W = &w
		}
		if taskID != nil {
			tk := *tasks[5]
			tk.ID = *taskID
			tasks[5] = &tk
		}
		return NewBatch(in, bws, tasks, nil)
	}
	wid := func(id int) *model.WorkerID { v := model.WorkerID(id); return &v }
	tid := func(id int) *model.TaskID { v := model.TaskID(id); return &v }
	cases := []struct {
		name   string
		worker *model.WorkerID
		task   *model.TaskID
	}{
		{"negative worker", wid(-1), nil},
		{"worker past instance", wid(len(in.Workers)), nil},
		{"huge worker", wid(1 << 30), nil},
		{"negative task", nil, tid(-1)},
		{"task past instance", nil, tid(len(in.Tasks))},
		{"huge task", nil, tid(1 << 30)},
	}
	for _, prebuilt := range []bool{false, true} {
		for _, tc := range cases {
			cache := NewEngineCache()
			now := 1.0
			attach := func(b *Batch, prebuild bool) {
				t.Helper()
				if prebuild {
					b.Index()
				}
				cache.Attach(b)
				if err := b.VerifyIndex(); err != nil {
					t.Fatalf("%s (prebuilt=%v): %v", tc.name, prebuilt, err)
				}
				checkTablesWithin(t, cache, in)
				now++
			}
			attach(odd(now, nil, nil), false)
			full := cache.Stats().FullRebuilds
			attach(odd(now, tc.worker, tc.task), prebuilt)
			if !prebuilt && cache.Stats().FullRebuilds != full+1 {
				t.Fatalf("%s: batch with an unindexable ID not built from scratch: %+v", tc.name, cache.Stats())
			}
			// The cache cannot diff against the unindexable batch, so the
			// next one starts afresh and the one after goes incremental.
			full = cache.Stats().FullRebuilds
			attach(odd(now, nil, nil), false)
			if cache.Stats().FullRebuilds != full+1 {
				t.Fatalf("%s (prebuilt=%v): batch after the unindexable one went incremental: %+v", tc.name, prebuilt, cache.Stats())
			}
			reused := cache.Stats().WorkersReused
			attach(odd(now, nil, nil), false)
			if cache.Stats().WorkersReused == reused {
				t.Fatalf("%s (prebuilt=%v): cache did not recover the incremental path: %+v", tc.name, prebuilt, cache.Stats())
			}
		}
	}
}

// TestEngineCacheTaskStampsWrap: when a batch's task stamps would pass the
// top of uint32, the cache clears the stamp table and rebuilds, and the
// index still matches a fresh build before, at and after the wrap.
func TestEngineCacheTaskStampsWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(523))
	in := randomInstance(rng, 30, 40, 4, true)
	specs := evolutionSpecs(in, 524, 6)
	cache := NewEngineCache()
	for k, s := range specs {
		if k == 2 {
			// Leave room for less than one more batch of stamps.
			cache.next = math.MaxUint32 - uint32(len(s.tasks)) + 1
		}
		full := cache.Stats().FullRebuilds
		b := NewBatch(in, s.bws, s.tasks, nil)
		cache.Attach(b)
		if err := b.VerifyIndex(); err != nil {
			t.Fatalf("batch %d: %v", k, err)
		}
		if k == 2 && cache.Stats().FullRebuilds != full+1 {
			t.Fatalf("stamp wrap did not rebuild: %+v", cache.Stats())
		}
		if k == 2 && cache.next != uint32(len(s.tasks))+1 {
			t.Fatalf("stamps not restarted after the wrap: next = %d", cache.next)
		}
	}
	if cache.Stats().WorkersReused == 0 {
		t.Fatal("no batch after the wrap went incremental")
	}
}

// TestEngineCacheSpikeDrain: a population that spikes to 20K workers,
// drains to 50 and spikes again keeps the index exact on every batch,
// pools exactly the departed workers' structs and serves every return from
// the pool, and grows nothing past the peak: the tables stay the
// instance's size and the struct store the peak population's.
func TestEngineCacheSpikeDrain(t *testing.T) {
	const spike, drained = 20000, 50
	rng := rand.New(rand.NewSource(525))
	in := randomInstance(rng, spike, 300, 8, false)
	var tasks []*model.Task
	for i := range in.Tasks {
		tasks = append(tasks, &in.Tasks[i])
	}
	mk := func(now float64, n int) *Batch {
		bws := make([]BatchWorker, n)
		for i := range bws {
			w := &in.Workers[i]
			bws[i] = BatchWorker{W: w, Loc: w.Loc, ReadyAt: now, DistBudget: w.MaxDist}
		}
		return NewBatch(in, bws, tasks, nil)
	}
	cache := NewEngineCache()
	for k, n := range []int{spike, drained, spike, drained} {
		before := cache.Stats()
		b := mk(float64(k), n)
		cache.Attach(b)
		if err := b.VerifyIndex(); err != nil {
			t.Fatalf("batch %d (%d workers): %v", k, n, err)
		}
		checkTablesWithin(t, cache, in)
		if len(cache.store) > spike {
			t.Fatalf("batch %d: %d cached structs for a peak of %d workers", k, len(cache.store), spike)
		}
		st := cache.Stats()
		switch k {
		case 1, 3:
			if got := cache.PoolOccupancy(); got != spike-drained {
				t.Fatalf("batch %d: pool occupancy %d, want %d", k, got, spike-drained)
			}
		case 2:
			if got := st.WorkersPooled - before.WorkersPooled; got != spike-drained {
				t.Fatalf("returns served from the pool = %d, want %d", got, spike-drained)
			}
			if got := st.WorkersRebuilt - before.WorkersRebuilt; got != spike-drained {
				t.Fatalf("returning workers rebuilt = %d, want %d", got, spike-drained)
			}
			if got := cache.PoolOccupancy(); got != 0 {
				t.Fatalf("pool occupancy after the returns = %d, want 0", got)
			}
		}
	}
}

// attachSink keeps the benchmarked indexes from being optimised away.
var attachSink *BatchIndex

// BenchmarkEngineCacheAttach measures one steady-state Attach at fig10's
// largest point (5K workers, 8K tasks): the cache alternates two batches
// that differ by 2% of the workers moved and 5% of the tasks retired, so
// every Attach revalidates most workers, rebuilds the moved ones and
// diffs the task churn. "after-spike" first attaches a batch of four times
// the workers; with dense tables it must cost the same per Attach.
//
//	go test ./internal/core -run '^$' -bench BenchmarkEngineCacheAttach -benchtime 200x
func BenchmarkEngineCacheAttach(b *testing.B) {
	c := gen.DefaultSynthetic()
	c.Tasks = 8000
	steadyWorkers := c.Workers
	c.Workers *= 4
	in, err := gen.Synthetic(c)
	if err != nil {
		b.Fatal(err)
	}
	const now = 40.0
	dist := in.Distance()
	rng := rand.New(rand.NewSource(9))
	var stay, moved []BatchWorker
	var all []BatchWorker
	for i := range in.Workers {
		w := &in.Workers[i]
		bw := BatchWorker{W: w, Loc: w.Loc, ReadyAt: now, DistBudget: w.MaxDist}
		all = append(all, bw)
		if i >= steadyWorkers {
			continue
		}
		stay = append(stay, bw)
		if rng.Float64() < 0.02 {
			dst := in.Tasks[rng.Intn(len(in.Tasks))].Loc
			bw.DistBudget -= dist(bw.Loc, dst)
			bw.Loc = dst
		}
		moved = append(moved, bw)
	}
	var open, churned []*model.Task
	for i := range in.Tasks {
		t := &in.Tasks[i]
		if t.Start <= now && now <= t.Deadline() {
			open = append(open, t)
			if rng.Float64() >= 0.05 {
				churned = append(churned, t)
			}
		}
	}
	var allTasks []*model.Task
	for i := range in.Tasks {
		allTasks = append(allTasks, &in.Tasks[i])
	}
	steady := [2]func() *Batch{
		func() *Batch { return NewBatch(in, stay, open, nil) },
		func() *Batch { return NewBatch(in, moved, churned, nil) },
	}
	for _, bc := range []struct {
		name  string
		spike bool
	}{{"steady", false}, {"after-spike", true}} {
		b.Run(bc.name, func(b *testing.B) {
			cache := NewEngineCache()
			if bc.spike {
				cache.Attach(NewBatch(in, all, allTasks, nil))
			}
			cache.Attach(steady[0]())
			cache.Attach(steady[1]())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				batch := steady[i%2]()
				b.StartTimer()
				attachSink = cache.Attach(batch)
			}
			b.ReportMetric(float64(len(stay)), "workers")
			b.ReportMetric(float64(len(open)), "pending")
		})
	}
}
