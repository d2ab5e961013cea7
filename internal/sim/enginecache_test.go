package sim

import (
	"reflect"
	"testing"

	"dasc/internal/core"
	"dasc/internal/gen"
	"dasc/internal/geo"
	"dasc/internal/model"
)

// simMetrics are the travel metrics the cross-batch engine must handle in a
// real run: the Euclidean-boundable trio (grid-maintained path) and
// Haversine (no spatial pruning).
var simMetrics = []struct {
	name string
	dist geo.DistanceFunc
}{
	{"Euclidean", geo.Euclidean},
	{"Manhattan", geo.Manhattan},
	{"Chebyshev", geo.Chebyshev},
	{"Haversine", geo.Haversine},
}

// TestSimEngineCacheDifferential runs full simulations with the
// incrementally carried candidate engine cross-checked against a
// from-scratch build at every batch (Config.VerifyEngineCache): any
// divergence aborts the run with an error.
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
				t.Fatalf("only %d batches — the cross-batch path was not exercised", res.Batches)
			}
		})
	}
}

// scratchIndexed hands its allocator a copy of every batch whose candidate
// engine is built from scratch, so the allocator never reads the engine the
// platform carried across batches: the reference side of the whole-run
// cache differential.
type scratchIndexed struct{ core.Allocator }

func (s scratchIndexed) Assign(b *core.Batch) *model.Assignment {
	return s.Allocator.Assign(core.NewBatch(b.In, b.Workers, b.Tasks, b.Satisfied))
}

// TestSimEngineCacheSameResultsAsScratch: a run with the carried engine must
// produce bit-identical results to one whose allocator reads an engine
// rebuilt from scratch every batch — equal engines mean equal allocator
// inputs mean equal assignments.
func TestSimEngineCacheSameResultsAsScratch(t *testing.T) {
	c := gen.DefaultSynthetic().Scale(0.01)
	c.Seed = 12
	in, err := gen.Synthetic(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range core.AllNames() {
		alloc1, _ := core.NewByName(name, 3)
		alloc2, _ := core.NewByName(name, 3)
		p1, err := New(in, Config{Allocator: alloc1})
		if err != nil {
			t.Fatal(err)
		}
		p2, err := New(in, Config{Allocator: scratchIndexed{alloc2}})
		if err != nil {
			t.Fatal(err)
		}
		cached, err := p1.Run()
		if err != nil {
			t.Fatal(err)
		}
		scratch, err := p2.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cached, scratch) {
			t.Fatalf("%s: cached run diverged from scratch run:\ncached:  %+v\nscratch: %+v", name, cached, scratch)
		}
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
