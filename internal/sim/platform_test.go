package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dasc/internal/core"
	"dasc/internal/gen"
	"dasc/internal/geo"
	"dasc/internal/model"
)

func TestSimExample1SingleBatch(t *testing.T) {
	in := model.Example1()
	p, err := New(in, Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Everyone appears at time 0 with huge windows; the first batch can
	// assign 3 workers, later batches mop up the remaining chain tasks as
	// workers free up (worker reuse).
	if res.AssignedPairs < 3 {
		t.Errorf("AssignedPairs = %d, want ≥ 3", res.AssignedPairs)
	}
	if res.CompletedTasks != res.AssignedPairs {
		t.Errorf("completed %d != assigned %d", res.CompletedTasks, res.AssignedPairs)
	}
	if res.AssignedPairs+res.ExpiredTasks != len(in.Tasks) {
		t.Errorf("assigned+expired = %d, want %d", res.AssignedPairs+res.ExpiredTasks, len(in.Tasks))
	}
	if res.TotalTravel <= 0 {
		t.Error("no travel recorded")
	}
}

func TestSimWorkerReuseAcrossBatches(t *testing.T) {
	// One worker, two dependent tasks. The worker must do t0 in batch one
	// and t1 in a later batch.
	in := &model.Instance{
		Workers: []model.Worker{{
			ID: 0, Loc: geo.Pt(0, 0), Start: 0, Wait: 100, Velocity: 10, MaxDist: 100,
			Skills: model.NewSkillSet(0),
		}},
		Tasks: []model.Task{
			{ID: 0, Loc: geo.Pt(1, 0), Start: 0, Wait: 100, Requires: 0},
			{ID: 1, Loc: geo.Pt(2, 0), Start: 0, Wait: 100, Requires: 0, Deps: []model.TaskID{0}},
		},
	}
	p, err := New(in, Config{Allocator: core.NewGreedy(), BatchInterval: 1})
	if err != nil {
		t.Fatal(err)
	}
	var batches []BatchResult
	p.cfg.OnBatch = func(br BatchResult) { batches = append(batches, br) }
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.AssignedPairs != 2 {
		t.Fatalf("AssignedPairs = %d, want 2 (reuse across batches)", res.AssignedPairs)
	}
	if got := res.WorkerAssignments[0]; got != 2 {
		t.Errorf("worker 0 conducted %d tasks, want 2", got)
	}
	// The two assignments must land in different batches: the single worker
	// can hold only one task per batch (exclusive constraint).
	nonEmpty := 0
	for _, br := range batches {
		if br.Assignment.Size() > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 2 {
		t.Errorf("assignments spread over %d batches, want 2", nonEmpty)
	}
}

func TestSimCrossBatchDependency(t *testing.T) {
	// t1 depends on t0, but t1 only appears after t0's batch. The platform
	// must treat t0 as satisfied when t1 shows up.
	in := &model.Instance{
		Workers: []model.Worker{
			{ID: 0, Loc: geo.Pt(0, 0), Start: 0, Wait: 100, Velocity: 10, MaxDist: 100, Skills: model.NewSkillSet(0)},
			{ID: 1, Loc: geo.Pt(0, 1), Start: 0, Wait: 100, Velocity: 10, MaxDist: 100, Skills: model.NewSkillSet(0)},
		},
		Tasks: []model.Task{
			{ID: 0, Loc: geo.Pt(1, 0), Start: 0, Wait: 100, Requires: 0},
			{ID: 1, Loc: geo.Pt(2, 0), Start: 20, Wait: 100, Requires: 0, Deps: []model.TaskID{0}},
		},
	}
	p, err := New(in, Config{Allocator: core.NewGreedy(), BatchInterval: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.AssignedPairs != 2 {
		t.Errorf("AssignedPairs = %d, want 2 (cross-batch dependency)", res.AssignedPairs)
	}
}

func TestSimServiceTimeDelaysDependants(t *testing.T) {
	// Two workers, chain t0→t1, long service: t1's service start must wait
	// for t0's finish even though both are assigned in the same batch.
	in := &model.Instance{
		Workers: []model.Worker{
			{ID: 0, Loc: geo.Pt(0, 0), Start: 0, Wait: 100, Velocity: 10, MaxDist: 100, Skills: model.NewSkillSet(0)},
			{ID: 1, Loc: geo.Pt(0, 0), Start: 0, Wait: 100, Velocity: 10, MaxDist: 100, Skills: model.NewSkillSet(0)},
		},
		Tasks: []model.Task{
			{ID: 0, Loc: geo.Pt(0.1, 0), Start: 0, Wait: 100, Requires: 0},
			{ID: 1, Loc: geo.Pt(0.2, 0), Start: 0, Wait: 100, Requires: 0, Deps: []model.TaskID{0}},
		},
	}
	p, err := New(in, Config{Allocator: core.NewGreedy(), ServiceTime: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.AssignedPairs != 2 {
		t.Fatalf("AssignedPairs = %d", res.AssignedPairs)
	}
	// t1's start delay includes waiting ≈7 for t0's service; the mean over
	// both tasks must therefore exceed 3.
	if !(res.MeanStartDelay > 3) {
		t.Errorf("MeanStartDelay = %v, want > 3", res.MeanStartDelay)
	}
}

func TestSimExpiredTasks(t *testing.T) {
	in := &model.Instance{
		Workers: []model.Worker{{
			ID: 0, Loc: geo.Pt(0, 0), Start: 0, Wait: 10, Velocity: 1, MaxDist: 1,
			Skills: model.NewSkillSet(0),
		}},
		Tasks: []model.Task{
			// Unreachable: distance 5 > MaxDist 1.
			{ID: 0, Loc: geo.Pt(5, 0), Start: 0, Wait: 10, Requires: 0},
		},
	}
	p, err := New(in, Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.AssignedPairs != 0 || res.ExpiredTasks != 1 {
		t.Errorf("res = %+v", res)
	}
	if !math.IsNaN(res.MeanStartDelay) {
		t.Errorf("MeanStartDelay = %v, want NaN", res.MeanStartDelay)
	}
}

func TestSimEmptyInstance(t *testing.T) {
	p, err := New(&model.Instance{}, Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Batches != 0 || res.AssignedPairs != 0 {
		t.Errorf("res = %+v", res)
	}
}

func TestSimConfigValidation(t *testing.T) {
	if _, err := New(&model.Instance{}, Config{}); err == nil {
		t.Error("missing allocator accepted")
	}
	if _, err := New(&model.Instance{}, Config{Allocator: core.NewGreedy(), ServiceTime: -1}); err == nil {
		t.Error("negative service time accepted")
	}
	bad := model.Example1()
	bad.Tasks[0].Deps = []model.TaskID{2} // cycle
	if _, err := New(bad, Config{Allocator: core.NewGreedy()}); err == nil {
		t.Error("cyclic instance accepted")
	}
}

func TestSimAllAllocatorsOnGeneratedWorkload(t *testing.T) {
	c := gen.DefaultSynthetic().Scale(0.01) // 50×50
	c.Seed = 7
	in, err := gen.Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	scores := map[string]int{}
	for _, name := range core.AllNames() {
		alloc, err := core.NewByName(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		p, err := New(in, Config{Allocator: alloc})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		total := res.AssignedPairs + res.WastedPairs + res.ExpiredTasks
		if total != len(in.Tasks) {
			t.Errorf("%s: assigned+wasted+expired=%d, want %d", name, total, len(in.Tasks))
		}
		scores[name] = res.AssignedPairs
	}
	// The dependency-aware approaches must beat the oblivious baselines on a
	// dependency-heavy workload.
	if scores[core.NameGreedy] < scores[core.NameRandom] {
		t.Errorf("greedy %d < random %d", scores[core.NameGreedy], scores[core.NameRandom])
	}
}

func TestSimWasteSemanticsClosest(t *testing.T) {
	// Example 1 in one batch: Closest produces (w1,t2),(w2,t4),(w3,t3) —
	// t2 and t3 have unassigned dependencies, so two dispatches are wasted
	// and the tasks are consumed without satisfying anything.
	in := model.Example1()
	p, err := New(in, Config{Allocator: core.NewClosest(), BatchInterval: 2000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.AssignedPairs != 1 {
		t.Errorf("AssignedPairs = %d, want 1 (paper Figure 1(b))", res.AssignedPairs)
	}
	if res.WastedPairs != 2 {
		t.Errorf("WastedPairs = %d, want 2", res.WastedPairs)
	}
	// Botched tasks are consumed: expired counts only never-touched tasks.
	if res.AssignedPairs+res.WastedPairs+res.ExpiredTasks != len(in.Tasks) {
		t.Errorf("accounting broken: %+v", res)
	}
	// Wasted dispatches still travel.
	if res.TotalTravel <= 0 {
		t.Error("wasted dispatches should still travel")
	}
	if res.CompletedTasks != 1 {
		t.Errorf("CompletedTasks = %d, want 1", res.CompletedTasks)
	}
}

func TestDependencyOrder(t *testing.T) {
	in := model.Example1()
	m := model.NewAssignment()
	m.Add(2, 2) // t3 depends on t1, t2
	m.Add(0, 1) // t2 depends on t1
	m.Add(1, 0) // t1
	order := core.DispatchOrder(in, m)
	pos := map[model.TaskID]int{}
	for i, p := range order {
		pos[p.Task] = i
	}
	if len(order) != 3 {
		t.Fatalf("order = %v", order)
	}
	if !(pos[0] < pos[1] && pos[1] < pos[2]) {
		t.Errorf("DispatchOrder violated: %v", order)
	}
	// Pairs whose dependencies are outside the assignment keep their place.
	m2 := model.NewAssignment()
	m2.Add(0, 2) // deps t0, t1 not assigned
	if got := core.DispatchOrder(in, m2); len(got) != 1 || got[0].Task != 2 {
		t.Errorf("partial order = %v", got)
	}
}

func TestSimBatchIntervalSensitivity(t *testing.T) {
	// Coarser batching must not assign more than finer batching on a
	// worker-reuse workload (fewer chances to reuse workers).
	c := gen.DefaultSynthetic().Scale(0.02)
	c.Seed = 11
	in, err := gen.Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	score := func(interval float64) int {
		p, err := New(in, Config{Allocator: core.NewGreedy(), BatchInterval: interval})
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.AssignedPairs
	}
	fine, coarse := score(1), score(30)
	if coarse > fine {
		t.Errorf("coarse batching (%d) beat fine batching (%d)", coarse, fine)
	}
}

func TestCSVTrace(t *testing.T) {
	in := model.Example1()
	var buf strings.Builder
	if err := WriteCSVHeader(&buf); err != nil {
		t.Fatal(err)
	}
	p, err := New(in, Config{
		Allocator: core.NewGreedy(),
		OnBatch:   CSVTrace(&buf, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Run(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.HasPrefix(lines[0], "batch,time,active_workers,pending_tasks,assigned,") {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) < 2 {
		t.Fatal("no batch rows traced")
	}
	if !strings.HasPrefix(lines[1], "0,") {
		t.Errorf("first row = %q", lines[1])
	}
	// Error sink receives write failures.
	var got error
	sink := CSVTrace(failWriter{}, func(err error) { got = err })
	sink(BatchResult{Assignment: model.NewAssignment()})
	if got == nil {
		t.Error("write error not reported")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errTest }

var errTest = fmt.Errorf("synthetic write failure")

func TestOnlineExample1(t *testing.T) {
	in := model.Example1()
	res, err := RunOnline(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// All five tasks are eventually doable online: roots first, dependants
	// unblock as workers free.
	if res.AssignedPairs < 3 {
		t.Errorf("online assigned %d, want ≥ 3", res.AssignedPairs)
	}
	if res.AssignedPairs+res.ExpiredTasks != len(in.Tasks) {
		t.Errorf("accounting: %+v", res)
	}
}

func TestOnlineRespectsDependencies(t *testing.T) {
	// t1 depends on t0 but arrives first; online must defer it until t0 is
	// assigned, not drop it.
	in := &model.Instance{
		Workers: []model.Worker{
			{ID: 0, Loc: geo.Pt(0, 0), Start: 0, Wait: 100, Velocity: 10, MaxDist: 100, Skills: model.NewSkillSet(0)},
			{ID: 1, Loc: geo.Pt(0, 1), Start: 0, Wait: 100, Velocity: 10, MaxDist: 100, Skills: model.NewSkillSet(0)},
		},
		Tasks: []model.Task{
			{ID: 0, Loc: geo.Pt(1, 0), Start: 5, Wait: 100, Requires: 0},
			{ID: 1, Loc: geo.Pt(2, 0), Start: 0, Wait: 100, Requires: 0, Deps: []model.TaskID{0}},
		},
	}
	res, err := RunOnline(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.AssignedPairs != 2 {
		t.Errorf("online = %+v, want both tasks", res)
	}
}

func TestOnlineVsBatchComparable(t *testing.T) {
	// On a generated workload both regimes must produce sane accounting;
	// neither may assign a task twice (checked by accounting identity).
	c := gen.DefaultSynthetic().Scale(0.02)
	c.Seed = 13
	in, err := gen.Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	online, err := RunOnline(in, Config{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := New(in, Config{Allocator: core.NewGreedy()})
	if err != nil {
		t.Fatal(err)
	}
	batch, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if online.AssignedPairs+online.ExpiredTasks != len(in.Tasks) {
		t.Errorf("online accounting: %+v", online)
	}
	if batch.AssignedPairs+batch.WastedPairs+batch.ExpiredTasks != len(in.Tasks) {
		t.Errorf("batch accounting: %+v", batch)
	}
	t.Logf("batch=%d online=%d (batching coordinates associative sets)",
		batch.AssignedPairs, online.AssignedPairs)
}

func TestOnlineEmptyInstance(t *testing.T) {
	res, err := RunOnline(&model.Instance{}, Config{})
	if err != nil || res.AssignedPairs != 0 {
		t.Errorf("res=%+v err=%v", res, err)
	}
}

func TestWorkerBusyTimeAccounted(t *testing.T) {
	in := model.Example1()
	p, err := New(in, Config{Allocator: core.NewGreedy(), ServiceTime: 3})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	// Each of the ≥3 dispatches keeps its worker busy for at least the
	// 3-unit service time.
	if res.WorkerBusyTime < float64(res.CompletedTasks)*3 {
		t.Errorf("WorkerBusyTime = %v for %d tasks at service 3",
			res.WorkerBusyTime, res.CompletedTasks)
	}
}

func TestCollectDelays(t *testing.T) {
	in := model.Example1()
	p, err := New(in, Config{Allocator: core.NewGreedy(), CollectDelays: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Delays) != res.CompletedTasks {
		t.Fatalf("Delays = %d entries for %d completions", len(res.Delays), res.CompletedTasks)
	}
	// Mean of the collected sample must match the reported mean.
	var sum float64
	for _, d := range res.Delays {
		sum += d
	}
	if got := sum / float64(len(res.Delays)); math.Abs(got-res.MeanStartDelay) > 1e-9 {
		t.Errorf("collected mean %v != reported %v", got, res.MeanStartDelay)
	}
	// Off by default.
	p2, _ := New(in, Config{Allocator: core.NewGreedy()})
	res2, _ := p2.Run()
	if res2.Delays != nil {
		t.Error("Delays collected without the flag")
	}
}

// simMetrics are the travel metrics the candidate engine must handle in a
// real run: the Euclidean-boundable trio (spatial-grid path) and Haversine
// (no spatial pruning).
var simMetrics = []struct {
	name string
	dist geo.DistanceFunc
}{
	{"Euclidean", geo.Euclidean},
	{"Manhattan", geo.Manhattan},
	{"Chebyshev", geo.Chebyshev},
	{"Haversine", geo.Haversine},
}

// TestSimEngineCacheDifferential runs full simulations with every batch's
// candidate engine cross-checked against the brute-force scan
// (Config.VerifyEngineCache): any divergence aborts the run with an error.
func TestSimEngineCacheDifferential(t *testing.T) {
	c := gen.DefaultSynthetic().Scale(0.01) // 50×50, arrivals spread over time
	c.Seed = 11
	base, err := gen.Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range simMetrics {
		t.Run(m.name, func(t *testing.T) {
			in := *base
			in.Dist = m.dist
			p, err := New(&in, Config{Allocator: core.NewGreedy(), VerifyEngineCache: true})
			if err != nil {
				t.Fatal(err)
			}
			res, err := p.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Batches < 2 {
				t.Fatalf("only %d batches — the batch loop was not exercised", res.Batches)
			}
		})
	}
}

// rogueAllocator returns pairs naming a worker that is not in the batch —
// the misbehaving-custom-Allocator case the platforms must survive. Before
// the guard, the worker-ID lookup resolved the unknown ID to batch index 0
// and silently moved worker 0.
type rogueAllocator struct{}

func (rogueAllocator) Name() string          { return "Rogue" }
func (rogueAllocator) DependencyAware() bool { return false }

func (rogueAllocator) Assign(b *core.Batch) *model.Assignment {
	a := model.NewAssignment()
	for _, task := range b.Tasks {
		a.Add(model.WorkerID(9999), task.ID)
		break
	}
	return a
}

func TestSimRogueAllocatorPairsSkipped(t *testing.T) {
	in := &model.Instance{
		Workers: []model.Worker{{
			ID: 0, Loc: geo.Pt(0, 0), Start: 0, Wait: 10, Velocity: 1, MaxDist: 10,
			Skills: model.NewSkillSet(0),
		}},
		Tasks: []model.Task{
			{ID: 0, Loc: geo.Pt(1, 0), Start: 0, Wait: 10, Requires: 0},
		},
	}
	p, err := New(in, Config{Allocator: rogueAllocator{}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := p.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.RoguePairs == 0 {
		t.Error("rogue pairs were not counted")
	}
	if res.AssignedPairs != 0 || res.CompletedTasks != 0 {
		t.Errorf("rogue pairs scored: assigned=%d completed=%d", res.AssignedPairs, res.CompletedTasks)
	}
	// Worker 0 must never have been dispatched on the rogue pair.
	if res.TotalTravel != 0 {
		t.Errorf("worker 0 travelled %v on a rogue pair", res.TotalTravel)
	}
	if got := res.WorkerAssignments[0]; got != 0 {
		t.Errorf("worker 0 conducted %d tasks via rogue pairs", got)
	}
	if res.ExpiredTasks != 1 {
		t.Errorf("task not returned to the pool: expired=%d, want 1", res.ExpiredTasks)
	}
}
